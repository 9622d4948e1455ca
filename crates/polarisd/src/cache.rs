//! Content-hash compile cache with poisoned-entry invalidation.
//!
//! Keys are the FNV-1a hash of the request source text mixed with the
//! pass configuration (the same unit compiled as `polaris` and as `vfa`
//! are different entries). A 64-bit hash can collide, so an entry keeps
//! the source it was compiled from and a read with any other source is a
//! miss, whose recompile then replaces the entry. Only *clean* compiles
//! — full pipeline, zero rolled-back stages, zero verifier violations —
//! are ever inserted: caching a degraded result would let a transient
//! fault outlive itself.
//!
//! Every read re-derives the entry's integrity hash from the stored
//! program text and compares it to the checksum recorded at insert time.
//! A mismatch means the entry was poisoned (bit rot, a buggy writer, or
//! the chaos harness); the entry is purged on the spot and the caller
//! recompiles. A poisoned entry is **never** served.
//!
//! The cache is a working set, not an archive: it holds at most
//! `CAPACITY` entries. An insert into a full cache first sweeps out
//! every entry that was not read since the previous sweep (second
//! chance), so sources that are requested again and again stay while
//! one-off sources go. Losing an entry only ever costs a recompile.

use crate::lock;
use crate::proto::fnv1a;
use std::collections::HashMap;
use std::sync::Mutex;

/// What a cached clean compile remembers — enough to answer a request
/// without touching the pipeline.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The unparsed transformed program (annotated source).
    pub program_text: String,
    /// FNV-1a of `program_text` at insert time — the integrity hash.
    pub checksum: u64,
    pub parallel_loops: u64,
}

/// Outcome of a cache read.
#[derive(Debug)]
pub enum CacheOutcome {
    Hit(CacheEntry),
    /// An entry existed but failed its integrity check; it has been
    /// purged and the caller must recompile.
    Poisoned,
    Miss,
}

/// Entries held before an insert sweeps (about 1 MB of program text).
const CAPACITY: usize = 1024;

struct Slot {
    /// The request source the entry was compiled from.
    source: String,
    entry: CacheEntry,
    /// Read since the last sweep.
    hit: bool,
}

#[derive(Default)]
pub struct CompileCache {
    map: Mutex<HashMap<u64, Slot>>,
}

impl CompileCache {
    pub fn new() -> CompileCache {
        CompileCache::default()
    }

    /// Integrity-checked read of an entry stored by
    /// [`CompileCache::insert`], without a source; see `lookup`.
    pub fn get(&self, key: u64) -> CacheOutcome {
        self.lookup(key, "")
    }

    /// Integrity-checked read of the entry `source` compiled to: an
    /// entry of another source is a `Miss`, and a hit whose stored text
    /// no longer hashes to its recorded checksum is purged and reported
    /// as `Poisoned`.
    pub(crate) fn lookup(&self, key: u64, source: &str) -> CacheOutcome {
        let mut map = lock(&self.map);
        match map.get_mut(&key) {
            None => CacheOutcome::Miss,
            Some(slot) if slot.source != source => CacheOutcome::Miss,
            Some(slot) if fnv1a(slot.entry.program_text.as_bytes()) == slot.entry.checksum => {
                slot.hit = true;
                CacheOutcome::Hit(slot.entry.clone())
            }
            Some(_) => {
                map.remove(&key);
                CacheOutcome::Poisoned
            }
        }
    }

    /// Record a clean compile under `key` alone, with no source for a
    /// read to match; see `store`.
    pub fn insert(&self, key: u64, program_text: String, parallel_loops: u64) {
        self.store(key, "", program_text, parallel_loops);
    }

    /// Record a clean compile of `source`, replacing whatever `key` held.
    /// The checksum is derived here from the text so entry and integrity
    /// hash cannot disagree at insert time. A full cache is swept first
    /// (see the module doc).
    pub(crate) fn store(&self, key: u64, source: &str, program_text: String, parallel_loops: u64) {
        let checksum = fnv1a(program_text.as_bytes());
        let entry = CacheEntry { program_text, checksum, parallel_loops };
        let mut map = lock(&self.map);
        if map.len() >= CAPACITY && !map.contains_key(&key) {
            map.retain(|_, slot| std::mem::take(&mut slot.hit));
            // every entry was read since the last sweep: start over
            // rather than grow
            if map.len() >= CAPACITY {
                map.clear();
            }
        }
        map.insert(key, Slot { source: source.to_owned(), entry, hit: false });
    }

    /// Drop an entry (e.g. after a later compile of the same unit fails
    /// verification, casting doubt on what was cached).
    pub fn purge(&self, key: u64) -> bool {
        lock(&self.map).remove(&key).is_some()
    }

    /// Chaos hook: silently flip a byte of the stored program text so the
    /// next read's integrity check must catch it. Returns false when the
    /// key has no entry.
    pub fn corrupt(&self, key: u64) -> bool {
        let mut map = lock(&self.map);
        match map.get_mut(&key) {
            Some(Slot { entry, .. }) if !entry.program_text.is_empty() => {
                // Replace the first byte with a different ASCII byte (safe
                // for UTF-8: program text is ASCII F-Mini source).
                let mut bytes = entry.program_text.clone().into_bytes();
                bytes[0] = if bytes[0] == b'#' { b'%' } else { b'#' };
                entry.program_text = String::from_utf8(bytes).expect("ascii flip");
                true
            }
            _ => false,
        }
    }

    pub fn len(&self) -> usize {
        lock(&self.map).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert_and_miss_before() {
        let cache = CompileCache::new();
        assert!(matches!(cache.get(1), CacheOutcome::Miss));
        cache.insert(1, "program t\nend\n".into(), 2);
        match cache.get(1) {
            CacheOutcome::Hit(e) => {
                assert_eq!(e.parallel_loops, 2);
                assert_eq!(e.checksum, fnv1a(b"program t\nend\n"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn poisoned_entry_is_detected_purged_and_never_served() {
        let cache = CompileCache::new();
        cache.insert(9, "program t\nend\n".into(), 0);
        assert!(cache.corrupt(9));
        assert!(matches!(cache.get(9), CacheOutcome::Poisoned));
        // purged: the poisoned bytes are gone, a re-read is a clean miss
        assert!(matches!(cache.get(9), CacheOutcome::Miss));
        assert!(cache.is_empty());
    }

    #[test]
    fn a_full_cache_sweeps_out_what_was_not_read_since_the_last_sweep() {
        let cache = CompileCache::new();
        for key in 0..CAPACITY as u64 {
            cache.insert(key, format!("program p{key}\nend\n"), 0);
        }
        assert_eq!(cache.len(), CAPACITY);
        // re-inserting a present key never sweeps
        cache.insert(0, "program p0\nend\n".into(), 0);
        assert_eq!(cache.len(), CAPACITY);
        assert!(matches!(cache.get(7), CacheOutcome::Hit(_)));
        cache.insert(u64::MAX, "program new\nend\n".into(), 0);
        assert_eq!(cache.len(), 2, "the entry that was read and the new one");
        assert!(matches!(cache.get(7), CacheOutcome::Hit(_)));
        assert!(matches!(cache.get(u64::MAX), CacheOutcome::Hit(_)));
        assert!(matches!(cache.get(8), CacheOutcome::Miss));
    }

    #[test]
    fn a_cache_whose_every_entry_is_hot_starts_over_instead_of_growing() {
        let cache = CompileCache::new();
        for key in 0..CAPACITY as u64 {
            cache.insert(key, "x".into(), 0);
            assert!(matches!(cache.get(key), CacheOutcome::Hit(_)));
        }
        cache.insert(u64::MAX, "y".into(), 0);
        assert_eq!(cache.len(), 1);
    }

    /// Two sources under one key: each reads only its own compile, and
    /// the second's insert replaces the first's entry.
    #[test]
    fn a_colliding_source_misses_and_its_insert_replaces_the_entry() {
        let (a, b) = ("program a\nend\n", "program b\nend\n");
        let cache = CompileCache::new();
        cache.store(3, a, "A".into(), 1);
        assert!(matches!(cache.lookup(3, b), CacheOutcome::Miss));
        assert!(matches!(cache.lookup(3, a), CacheOutcome::Hit(e) if e.program_text == "A"));
        cache.store(3, b, "B".into(), 2);
        assert!(matches!(cache.lookup(3, a), CacheOutcome::Miss));
        match cache.lookup(3, b) {
            CacheOutcome::Hit(e) => assert_eq!((e.program_text.as_str(), e.parallel_loops), ("B", 2)),
            other => panic!("{other:?}"),
        }
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn purge_is_idempotent() {
        let cache = CompileCache::new();
        cache.insert(5, "x".into(), 0);
        assert!(cache.purge(5));
        assert!(!cache.purge(5));
        assert!(!cache.corrupt(5));
    }
}
