//! Data-memory traffic model with sub-word SIMD packing.

use flexfloat::TraceCounts;

/// Memory-access report of one execution (the left half of Fig. 6).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemoryReport {
    /// Accesses issued by scalar code (one per element, any width).
    pub scalar_accesses: u64,
    /// Accesses issued by vectorized code after packing (2×16-bit or
    /// 4×8-bit elements per 32-bit access).
    pub vector_accesses: u64,
    /// Elements moved by vectorized code (before packing), for reference.
    pub vector_elements: u64,
}

impl MemoryReport {
    /// Total data-memory accesses.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.scalar_accesses + self.vector_accesses
    }
}

/// Computes the memory report from recorded trace counts.
///
/// Scalar loads/stores cost one access each regardless of width (the TCDM
/// is a 32-bit scratchpad — narrowing alone does not reduce the access
/// count). Inside vectorizable sections, elements pack `32 / width` to an
/// access, which is where the paper's 27 %-average access reduction comes
/// from.
#[must_use]
pub fn memory_report(counts: &TraceCounts) -> MemoryReport {
    let mut report = MemoryReport::default();
    for (&width, oc) in counts.loads.iter().chain(counts.stores.iter()) {
        report.scalar_accesses += oc.scalar;
        let lanes = u64::from((32 / width.max(8)).max(1));
        report.vector_elements += oc.vector;
        report.vector_accesses += oc.vector.div_ceil(lanes);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexfloat::{FxArray, Recorder, VectorSection};
    use tp_formats::{BINARY16, BINARY32, BINARY8};

    #[test]
    fn scalar_accesses_do_not_pack() {
        let (_, counts) = Recorder::scoped(|| {
            let arr = FxArray::from_f64s(BINARY8, &[1.0; 8]);
            for i in 0..8 {
                let _ = arr.get(i);
            }
        });
        let r = memory_report(&counts);
        assert_eq!(r.scalar_accesses, 8);
        assert_eq!(r.vector_accesses, 0);
    }

    #[test]
    fn vector_accesses_pack_by_width() {
        let (_, counts) = Recorder::scoped(|| {
            let b8 = FxArray::from_f64s(BINARY8, &[1.0; 8]);
            let b16 = FxArray::from_f64s(BINARY16, &[1.0; 8]);
            let b32 = FxArray::from_f64s(BINARY32, &[1.0; 8]);
            let _v = VectorSection::enter();
            for i in 0..8 {
                let _ = b8.get(i);
                let _ = b16.get(i);
                let _ = b32.get(i);
            }
        });
        let r = memory_report(&counts);
        // 8 b8 elements -> 2 accesses; 8 b16 -> 4; 8 b32 -> 8.
        assert_eq!(r.vector_accesses, 2 + 4 + 8);
        assert_eq!(r.vector_elements, 24);
        assert_eq!(r.scalar_accesses, 0);
    }

    #[test]
    fn partial_vectors_round_up() {
        let (_, counts) = Recorder::scoped(|| {
            let b8 = FxArray::from_f64s(BINARY8, &[1.0; 5]);
            let _v = VectorSection::enter();
            for i in 0..5 {
                let _ = b8.get(i);
            }
        });
        // 5 elements at 4 lanes -> 2 accesses.
        assert_eq!(memory_report(&counts).vector_accesses, 2);
    }

    #[test]
    fn stores_count_like_loads() {
        let (_, counts) = Recorder::scoped(|| {
            let mut arr = FxArray::zeros(BINARY16, 4);
            let v = flexfloat::Fx::new(1.0, BINARY16);
            let _g = VectorSection::enter();
            for i in 0..4 {
                arr.set(i, v);
            }
        });
        assert_eq!(memory_report(&counts).vector_accesses, 2);
    }
}
