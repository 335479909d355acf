//! Seeded workload input: per-PE pools of pre-generated mini-batches,
//! replayed as an unbounded stream with fresh ids.
//!
//! Generating weights costs more than the jump scan consumes them, so a
//! run generates `slots` batches per PE once (outside every timed region)
//! and replays them in rotation. Only the weights repeat: before batch
//! `b` is handed out, its ids are rewritten to carry `b`, so every record
//! of the stream has a distinct id and every sampled id decodes back to
//! the exact record that was fed.
//!
//! Id layout: `pe << 56 | batch << 32 | position << 12 | tenant`, with
//! the tenant (a shard routing key) only set on the fleet workload.

use reservoir_core::SampleItem;
use reservoir_rng::{Rng64, SeedSequence, StreamKind};
use reservoir_stream::{Item, WeightGen};

const PE_SHIFT: u32 = 56;
const BATCH_SHIFT: u32 = 32;
const POS_SHIFT: u32 = 12;
pub const MAX_BATCH_ITEMS: usize = 1 << (BATCH_SHIFT - POS_SHIFT);
pub const MAX_TENANTS: u64 = 1 << POS_SHIFT;

/// `(pe, batch)` of a record id: records of one batch share it.
pub fn batch_tag(id: u64) -> u64 {
    id >> BATCH_SHIFT
}

/// The routing key a fleet record carries.
pub fn tenant(id: u64) -> u64 {
    id & (MAX_TENANTS - 1)
}

/// One PE's replayable stream.
pub struct Pool {
    pe: usize,
    slots: Vec<Vec<Item>>,
}

impl Pool {
    /// `slots` batches of `items` records for PE `pe`, weights from the
    /// paper's uniform (0, 100] distribution. With `tenants > 0` every
    /// record also carries a log-uniform tenant in `1..tenants` (a few
    /// heavy tenants, a long tail of light ones).
    pub fn new(seed: u64, pe: usize, slots: usize, items: usize, tenants: u64) -> Self {
        assert!(items <= MAX_BATCH_ITEMS && tenants <= MAX_TENANTS);
        let mut rng = SeedSequence::new(seed).rng_for(pe, StreamKind::Workload);
        let weights = WeightGen::paper_uniform();
        let ln_t = (tenants.max(2) as f64).ln();
        let slots = (0..slots)
            .map(|slot| {
                (0..items)
                    .map(|pos| {
                        let w = weights.sample(pe, slot as u64, &mut rng);
                        let t = if tenants > 0 {
                            ((rng.rand_co() * ln_t).exp() as u64).clamp(1, tenants - 1)
                        } else {
                            0
                        };
                        Item::new(Self::id(pe, 0, pos, t), w)
                    })
                    .collect()
            })
            .collect();
        Pool { pe, slots }
    }

    fn id(pe: usize, batch: u64, pos: usize, tenant: u64) -> u64 {
        (pe as u64) << PE_SHIFT | batch << BATCH_SHIFT | (pos as u64) << POS_SHIFT | tenant
    }

    pub fn items_per_batch(&self) -> usize {
        self.slots[0].len()
    }

    /// Batch `b` of this PE's stream, with its ids rewritten to carry `b`.
    pub fn batch(&mut self, b: u64) -> &[Item] {
        self.prepare(b);
        self.get(b)
    }

    /// Rewrite the ids of batch `b`'s slot to carry `b`; the batch then
    /// reads back through [`Self::get`] until another batch reuses the
    /// slot.
    pub fn prepare(&mut self, b: u64) {
        assert!(
            b < 1 << (PE_SHIFT - BATCH_SHIFT),
            "batch index overflows the id layout"
        );
        let hi = (self.pe as u64) << PE_SHIFT | b << BATCH_SHIFT;
        let n = self.slots.len() as u64;
        for it in self.slots[(b % n) as usize].iter_mut() {
            it.id = hi | (it.id & ((1 << BATCH_SHIFT) - 1));
        }
    }

    /// Batch `b` as last prepared.
    pub fn get(&self, b: u64) -> &[Item] {
        &self.slots[(b % self.slots.len() as u64) as usize]
    }

    /// Whether `m` is a record this PE fed in batches `0..fed`, with the
    /// weight it was fed with.
    pub fn was_fed(&self, m: &SampleItem, fed: u64) -> bool {
        let pe = (m.id >> PE_SHIFT) as usize;
        let b = (m.id >> BATCH_SHIFT) & ((1 << (PE_SHIFT - BATCH_SHIFT)) - 1);
        let pos = ((m.id >> POS_SHIFT) & ((1 << (BATCH_SHIFT - POS_SHIFT)) - 1)) as usize;
        if pe != self.pe || b >= fed || pos >= self.items_per_batch() {
            return false;
        }
        let src = &self.slots[(b % self.slots.len() as u64) as usize][pos];
        tenant(src.id) == tenant(m.id) && src.weight.to_bits() == m.weight.to_bits()
    }
}
