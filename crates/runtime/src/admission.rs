//! The admission cache: structural and range admission once per stream.
//!
//! NetPU-M reconfigures by data stream (§III.B.3): every request for a
//! resident model resends the same header, settings, parameter and
//! weight sections, and only the input block changes. The full
//! [`netpu_check::check_words`] admission is nevertheless the largest
//! host cost of a single-frame request, so the driver keeps the report
//! of every stream it admitted and serves repeats from it
//! (DESIGN.md §4.10).
//!
//! A lookup never trusts host metadata or a hash:
//!
//! * the input block is located from the stream itself (the header's
//!   layer count, settings word 0's `neurons`);
//! * a candidate is found by a cheap pre-key over the stream length,
//!   the header word and the settings words;
//! * a hit needs every word outside the `neurons` pixel bytes to be
//!   *equal* to the stored stream (the padding lanes of the final input
//!   word included), the same [`HwConfig`], and every pixel inside the
//!   header's declared input range.
//!
//! Soundness: the structural rules never read the input block, and the
//! range analysis reads pixels only for NPC020 (the declared range must
//! cover the stream's own input). With every pixel in range NPC020
//! stays silent and the analysis runs on the declared range alone, so
//! two such streams that agree outside their pixel bytes get identical
//! reports. A report is therefore stored only when its own stream's
//! pixels were in range and it carries no structural error, and an
//! out-of-range request falls through to the full check.

use crate::lru::LruCore;
use netpu_arith::cast;
use netpu_arith::quant::LANES_PER_WORD;
use netpu_check::Report;
use netpu_compiler::stream::{declared_input_range, input_words};
use netpu_compiler::LayerSetting;
use netpu_core::HwConfig;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Byte budget of one driver's admission cache, counted as the stored
/// stream words of the resident entries. It holds the whole model zoo
/// (≈ 3.7 MB of streams) four times over; a stream larger than the
/// budget is never cached.
pub const ADMISSION_CACHE_BYTES: u64 = 16 << 20;

/// Point-in-time admission-cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionCacheStats {
    /// Admissions served from a stored report.
    pub hits: u64,
    /// Admissions that ran the full structural and range check.
    pub misses: u64,
    /// Streams currently stored.
    pub entries: usize,
    /// Bytes currently stored (always ≤ [`ADMISSION_CACHE_BYTES`]).
    pub resident_bytes: u64,
}

/// One admitted stream and its report.
struct Entry {
    hw: HwConfig,
    words: Vec<u64>,
    report: Report,
}

/// Where a stream's pixel bytes sit, read from the stream itself.
#[derive(Clone, Copy)]
struct InputBlock {
    /// First input word.
    start: usize,
    /// Pixel count (`neurons` of settings word 0).
    pixels: usize,
}

impl InputBlock {
    /// Locates the input block the way the structural rules and the
    /// decoder do, or `None` when the stream is too malformed to have
    /// one (the caller then skips the cache).
    fn locate(words: &[u64]) -> Option<InputBlock> {
        let &header = words.first()?;
        let layers = cast::usize_sat(header >> 24 & 0xFFFF);
        if layers < 2 {
            return None;
        }
        let setting = LayerSetting::decode(*words.get(1)?).ok()?;
        let pixels = cast::usize_from_u32(setting.neurons);
        let start = 1 + layers;
        let end = start.checked_add(input_words(pixels))?;
        (end <= words.len()).then_some(InputBlock { start, pixels })
    }

    /// One past the last input word.
    fn end(self) -> usize {
        self.start + input_words(self.pixels)
    }

    /// Pixel `i` of `words`.
    fn pixel(self, words: &[u64], i: usize) -> u8 {
        cast::lo8(words[self.start + i / LANES_PER_WORD] >> (8 * (i % LANES_PER_WORD)))
    }

    /// `true` when every pixel lies inside the header's declared input
    /// range (vacuously, when the header declares none): exactly the
    /// streams on which NPC020's pixel test stays silent.
    fn pixels_in_range(self, words: &[u64]) -> bool {
        match declared_input_range(words[0]) {
            None => true,
            Some((lo, hi)) => (0..self.pixels).all(|i| (lo..=hi).contains(&self.pixel(words, i))),
        }
    }

    /// `true` when `a` and `b` agree on every bit outside the pixel
    /// bytes: all other words, and the padding lanes of the final input
    /// word.
    fn same_outside_pixels(self, a: &[u64], b: &[u64]) -> bool {
        let end = self.end();
        if a.len() != b.len() || a[..self.start] != b[..self.start] || a[end..] != b[end..] {
            return false;
        }
        let used = self.pixels % LANES_PER_WORD;
        if used == 0 {
            return true;
        }
        let last = end - 1;
        let padding = !0u64 << (8 * used);
        (a[last] ^ b[last]) & padding == 0
    }
}

/// The cheap pre-key: stream length, header word and settings words.
/// Two streams of one topology share it; the exact comparison decides.
fn pre_key(words: &[u64], block: InputBlock) -> u64 {
    let mut h = std::hash::DefaultHasher::new();
    words.len().hash(&mut h);
    words[..block.start].hash(&mut h);
    h.finish()
}

/// A byte-budgeted, content-keyed store of admission reports, shared
/// (behind an [`Arc`]) by every clone of one driver.
pub(crate) struct AdmissionCache {
    lru: Mutex<LruCore<Arc<Entry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for AdmissionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionCache").finish_non_exhaustive()
    }
}

impl AdmissionCache {
    /// An empty cache budgeted to [`ADMISSION_CACHE_BYTES`].
    pub(crate) fn new() -> AdmissionCache {
        AdmissionCache {
            lru: Mutex::new(LruCore::new(ADMISSION_CACHE_BYTES)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// [`netpu_check::check_words`]`(words, hw)`, served from a stored
    /// report when `words` repeats an admitted stream outside its
    /// in-range pixels.
    pub(crate) fn check(&self, words: &[u64], hw: &HwConfig) -> Report {
        let Some(block) = InputBlock::locate(words) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return netpu_check::check_words(words, hw);
        };
        let key = pre_key(words, block);
        let in_range = block.pixels_in_range(words);
        if in_range {
            // Clone the candidate under the lock and compare outside
            // it, so concurrent workers never serialise on a compare.
            let candidate = self.lock().lookup(key).map(Arc::clone);
            if let Some(entry) = candidate {
                if entry.hw == *hw && block.same_outside_pixels(&entry.words, words) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return entry.report.clone();
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let report = netpu_check::check_words(words, hw);
        if in_range && !report.has_structural_errors() {
            let bytes = cast::u64_from_usize(words.len()).saturating_mul(8);
            let entry = Arc::new(Entry {
                hw: *hw,
                words: words.to_vec(),
                report: report.clone(),
            });
            // An entry above the whole budget is simply not kept.
            let _ = self.lock().insert(key, entry, bytes);
        }
        report
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> AdmissionCacheStats {
        let lru = self.lock();
        AdmissionCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: lru.len(),
            resident_bytes: lru.resident_bytes(),
        }
    }

    /// Locks the store. A panic elsewhere while the lock was held (the
    /// serving layers' workers are crash-only) leaves it consistent:
    /// the only code under the lock is one LRU lookup or insert.
    fn lock(&self) -> MutexGuard<'_, LruCore<Arc<Entry>>> {
        self.lru.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpu_nn::export::BnMode;
    use netpu_nn::zoo::ZooModel;

    fn tfc_words(pixels: &[u8]) -> Vec<u64> {
        let model = ZooModel::TfcW1A1
            .build_untrained(3, BnMode::Folded)
            .unwrap();
        netpu_compiler::compile(&model, pixels).unwrap().words
    }

    #[test]
    fn repeats_with_new_pixels_hit_and_match_the_full_check() {
        let hw = HwConfig::paper_instance();
        let cache = AdmissionCache::new();
        let a = tfc_words(&[7u8; 784]);
        let b = tfc_words(&[200u8; 784]);
        assert_eq!(cache.check(&a, &hw), netpu_check::check_words(&a, &hw));
        assert_eq!(cache.check(&b, &hw), netpu_check::check_words(&b, &hw));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.resident_bytes, cast::u64_from_usize(a.len()) * 8);
    }

    #[test]
    fn another_instance_never_reuses_a_report() {
        let hw = HwConfig::paper_instance();
        let dense = HwConfig {
            dense_weight_packing: !hw.dense_weight_packing,
            ..hw
        };
        let cache = AdmissionCache::new();
        let a = tfc_words(&[7u8; 784]);
        cache.check(&a, &hw);
        assert_eq!(
            cache.check(&a, &dense),
            netpu_check::check_words(&a, &dense)
        );
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn padding_lanes_of_a_partial_input_word_take_part() {
        let model = (0..64)
            .map(netpu_nn::zoo::random_model)
            .find(|m| m.input.len % LANES_PER_WORD != 0)
            .expect("some random model has a partial input word");
        let words = netpu_compiler::compile(&model, &vec![1u8; model.input.len])
            .unwrap()
            .words;
        let block = InputBlock::locate(&words).unwrap();
        let last = block.end() - 1;
        let used = block.pixels % LANES_PER_WORD;
        let mut padded = words.clone();
        padded[last] ^= 1 << (8 * used);
        assert!(!block.same_outside_pixels(&words, &padded));
        let mut repixeled = words.clone();
        repixeled[last] ^= 1;
        assert!(block.same_outside_pixels(&words, &repixeled));
    }
}
