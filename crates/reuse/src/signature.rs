//! The MCACHE-style cross-stream signature cache (MERCURY, arXiv
//! 2110.14904, adapted to the paper's correction machinery).
//!
//! Per-stream reuse is strictly temporal: frame t corrects against frame
//! t-1 of the *same* stream, so a stream's first reuse frame always runs
//! from scratch. At serving scale, *different* streams are often
//! near-identical (silence frames, idle dashcam video), and that
//! first-frame cost dominates whenever streams churn through the LRU pool.
//!
//! This module recovers that reuse: each reuse slot of a feed-forward
//! [`CompiledModel`](crate::CompiledModel) gets a fixed set of random
//! hyperplanes ([`RpqPlanes`]) hashing layer inputs to short binary
//! signatures, and the model carries one shared, sharded, bounded
//! [`SignatureCache`] mapping `(slot, signature)` to a published baseline —
//! the raw input a session ran from scratch plus the linear outputs it
//! buffered. A session whose own baseline is missing looks its input up;
//! on a hit it adopts the cached baseline under its *own* quantizer and
//! lets the ordinary `z' = z + (c'-c)·w` correction pass absorb the
//! difference. A cheap code-diff pre-check bails out of false-positive
//! collisions before any baseline is touched.
//!
//! Entries deliberately store the producer's **raw** (pre-quantization)
//! input rather than its codes: codes are meaningless under another
//! session's independently calibrated quantizer, while re-quantizing raw
//! values under the consumer's grid is exact. The residual baseline error
//! (producer centroids vs consumer centroids of the same values) is the
//! same order as ordinary quantization error and is policed by the same
//! drift watchdog.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use reuse_nn::LayerKind;
use reuse_quant::RpqPlanes;
use reuse_tensor::Shape;

use crate::model::CompiledSlot;

/// Signature width in hyperplane sign bits. More bits mean fewer false
/// collisions but also fewer cross-stream hits.
const SIGNATURE_BITS: u32 = 16;

/// Number of independently locked shards. A power of two so shard
/// selection is a mask; small enough that an empty cache stays cheap.
const SHARDS: usize = 8;

/// A baseline published by one session for adoption by others.
#[derive(Debug)]
pub struct CachedBaseline {
    /// The raw (pre-quantization) layer input of the from-scratch execution.
    pub input: Vec<f32>,
    /// The buffered linear outputs (pre-activation) for that input.
    pub linear: Vec<f32>,
}

type SigKey = (u32, u64);

#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<SigKey, Arc<CachedBaseline>>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<SigKey>,
}

/// A sharded, bounded, read-mostly map from `(slot, signature)` to a
/// published [`CachedBaseline`].
///
/// Writes happen only on cold-start from-scratch executions (a stream's
/// first reuse frame, or the first frame after a state reset), so
/// contention is negligible: the steady-state hot path never touches a
/// lock. Each shard evicts FIFO once it reaches
/// its share of the configured capacity.
#[derive(Debug)]
pub struct SignatureCache {
    shards: Vec<Mutex<Shard>>,
    /// Entry bound per shard (total capacity split evenly, rounded up).
    shard_capacity: usize,
}

impl SignatureCache {
    /// Creates a cache bounded to roughly `capacity` entries in total.
    /// `capacity == 0` is a valid degenerate cache: every lookup misses
    /// and every insert is dropped.
    pub fn new(capacity: usize) -> Self {
        SignatureCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity: capacity.div_ceil(SHARDS),
        }
    }

    fn shard_for(&self, slot: u32, sig: u64) -> &Mutex<Shard> {
        // Mix the slot in so one hot layer doesn't pile onto one shard.
        let h = sig ^ (u64::from(slot)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h as usize) & (SHARDS - 1)]
    }

    /// Looks up a published baseline. The `Arc` is cloned under a brief
    /// shard lock, so the caller reads the entry without holding it.
    pub fn get(&self, slot: u32, sig: u64) -> Option<Arc<CachedBaseline>> {
        if self.shard_capacity == 0 {
            return None;
        }
        let shard = self.shard_for(slot, sig).lock().expect("cache poisoned");
        shard.entries.get(&(slot, sig)).cloned()
    }

    /// Publishes a baseline, evicting the shard's oldest entry when full.
    /// Returns `false` when the cache has no capacity and the entry was
    /// dropped; re-publishing an existing key replaces its baseline.
    pub fn insert(&self, slot: u32, sig: u64, entry: CachedBaseline) -> bool {
        if self.shard_capacity == 0 {
            return false;
        }
        let key = (slot, sig);
        let mut shard = self.shard_for(slot, sig).lock().expect("cache poisoned");
        if shard.entries.insert(key, Arc::new(entry)).is_none() {
            shard.order.push_back(key);
            if shard.order.len() > self.shard_capacity {
                if let Some(old) = shard.order.pop_front() {
                    shard.entries.remove(&old);
                }
            }
        }
        true
    }

    /// Total entries currently cached across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache poisoned").entries.len())
            .sum()
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The per-model signature machinery: one plane set per eligible reuse
/// slot plus the shared cache. Built by
/// [`CompiledModel::new`](crate::CompiledModel::new) when the config
/// enables the cache on a feed-forward network.
#[derive(Debug)]
pub(crate) struct ModelSignatures {
    /// Indexed by slot position; `None` for slots that never participate
    /// (reuse-disabled layers, recurrent cells).
    planes: Vec<Option<RpqPlanes>>,
    cache: SignatureCache,
}

impl ModelSignatures {
    pub(crate) fn new(slots: &[CompiledSlot], input_shapes: &[Shape], capacity: usize) -> Self {
        let planes = slots
            .iter()
            .map(|slot| {
                // Passthrough slots hold no baseline to share: no planes.
                if !slot.policy.enabled
                    || slot.kind == LayerKind::Recurrent
                    || slot.kind == LayerKind::Passthrough
                {
                    return None;
                }
                let dim = input_shapes[slot.layer_index].volume();
                // Per-slot seed so layers with equal input volumes still
                // hash through distinct planes.
                let seed = 0x5157_5349_4743_4143 ^ (slot.layer_index as u64) << 32;
                Some(RpqPlanes::new(dim, SIGNATURE_BITS, seed))
            })
            .collect();
        ModelSignatures {
            planes,
            cache: SignatureCache::new(capacity),
        }
    }

    pub(crate) fn planes(&self, slot_pos: usize) -> Option<&RpqPlanes> {
        self.planes.get(slot_pos).and_then(|p| p.as_ref())
    }

    pub(crate) fn cache(&self) -> &SignatureCache {
        &self.cache
    }

    /// Bytes held by the plane matrices (cache entries are dynamic).
    pub(crate) fn plane_bytes(&self) -> usize {
        self.planes
            .iter()
            .flatten()
            .map(RpqPlanes::storage_bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(tag: f32) -> CachedBaseline {
        CachedBaseline {
            input: vec![tag; 4],
            linear: vec![tag * 2.0; 2],
        }
    }

    #[test]
    fn get_returns_what_insert_published() {
        let cache = SignatureCache::new(64);
        assert!(cache.insert(3, 0xABCD, entry(1.5)));
        let hit = cache.get(3, 0xABCD).expect("hit");
        assert_eq!(hit.input, vec![1.5; 4]);
        assert_eq!(hit.linear, vec![3.0; 2]);
        assert!(cache.get(3, 0xABCE).is_none(), "different signature");
        assert!(cache.get(2, 0xABCD).is_none(), "different slot");
    }

    #[test]
    fn capacity_zero_drops_everything() {
        let cache = SignatureCache::new(0);
        assert!(!cache.insert(0, 1, entry(1.0)));
        assert!(cache.get(0, 1).is_none());
        assert_eq!(cache.len(), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn reinsert_replaces_without_growing() {
        let cache = SignatureCache::new(64);
        cache.insert(0, 7, entry(1.0));
        cache.insert(0, 7, entry(2.0));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(0, 7).unwrap().input[0], 2.0);
    }

    #[test]
    fn eviction_is_fifo_and_bounded() {
        // Capacity 8 over 8 shards = 1 entry per shard: inserting two keys
        // that land in the same shard must evict the older one.
        let cache = SignatureCache::new(8);
        let mut sigs = Vec::new();
        for sig in 0..64u64 {
            cache.insert(0, sig, entry(sig as f32));
            sigs.push(sig);
        }
        assert!(cache.len() <= 8, "bounded: {} entries", cache.len());
        // The newest insert in any shard is always resident.
        assert!(cache.get(0, 63).is_some());
    }

    #[test]
    fn len_counts_across_shards() {
        let cache = SignatureCache::new(1024);
        for sig in 0..100u64 {
            cache.insert(1, sig, entry(0.0));
        }
        assert_eq!(cache.len(), 100);
    }
}
