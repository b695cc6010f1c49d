//! The α–β network model of the Cray Aries interconnect.

/// Latency–bandwidth model with distinct fine-grained and bulk paths.
///
/// The paper's central distributed-memory finding is that *how* data moves
/// matters far more than how much: "a large volume of fine-grained
/// communication negatively impacts the performance of GraphBLAS
/// operations ... we accessed remote entries of the input and output
/// vectors one element at a time" (§IV). The model therefore distinguishes:
///
/// * **fine-grained** transfers — one message per element (Chapel's
///   implicit remote access in `forall` over distributed sparse arrays,
///   `xDom._value.locDoms[r]` element reads, the scatter's per-element
///   atomic updates). Cost: `α_fine` per message, amortized over a small
///   number of concurrently-outstanding requests per locale
///   (`fine_concurrency` — dependent accesses pipeline poorly).
/// * **bulk** transfers — one message per block (Listing 5's
///   `locDA.mySparseBlock += locDB.mySparseBlock`, the aggregated gather a
///   bulk-synchronous implementation would use). Cost: `α_bulk` per
///   message plus `bytes / β`.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkModel {
    /// Effective latency of one fine-grained remote element access
    /// (software stack included), seconds.
    pub alpha_fine: f64,
    /// How many fine-grained requests a locale keeps in flight on average.
    pub fine_concurrency: f64,
    /// Per-message overhead of a bulk transfer, seconds.
    pub alpha_bulk: f64,
    /// Bulk bandwidth per node, bytes/s.
    pub beta: f64,
    /// Penalty multiplier for intra-node ("colocated locales") traffic —
    /// shared memory is faster per byte but the runtime's comm stack and
    /// contention dominate at small sizes (Fig 10).
    pub intra_node_alpha_scale: f64,
    /// Congestion growth per additional locale participating in a
    /// fine-grained exchange: dragonfly global links and the target NICs
    /// are shared, so per-message latency inflates as more locales gather
    /// or scatter simultaneously (the "increases by several orders of
    /// magnitude" growth of the SpMSpV gather, Figs 8–9).
    pub fine_congestion: f64,
}

impl NetworkModel {
    /// Effective congestion multiplier when `participants` locales issue
    /// fine-grained traffic at once. Zero or one participant means no one
    /// shares a link, so the factor is exactly 1.0 — a locale never
    /// congests itself.
    pub fn congestion(&self, participants: usize) -> f64 {
        if participants <= 1 {
            return 1.0;
        }
        1.0 + self.fine_congestion * (participants - 1) as f64
    }
}

impl NetworkModel {
    /// Aries dragonfly constants, calibrated against the paper's Figures
    /// 1, 2, 8 and 9 (see crate docs on the calibration discipline).
    pub fn aries() -> Self {
        NetworkModel {
            alpha_fine: 9.0e-6,
            fine_concurrency: 4.0,
            alpha_bulk: 12.0e-6,
            beta: 6.0e9,
            intra_node_alpha_scale: 0.35,
            fine_congestion: 0.2,
        }
    }

    /// Time for `messages` fine-grained single-element transfers issued by
    /// one locale.
    pub fn fine_time(&self, messages: u64) -> f64 {
        messages as f64 * self.alpha_fine / self.fine_concurrency
    }

    /// Time for fine-grained transfers that stay within one node
    /// (colocated locales).
    pub fn fine_time_intra(&self, messages: u64) -> f64 {
        self.fine_time(messages) * self.intra_node_alpha_scale
    }

    /// Time for a set of bulk transfers: `messages` blocks carrying
    /// `bytes` in total.
    pub fn bulk_time(&self, messages: u64, bytes: u64) -> f64 {
        messages as f64 * self.alpha_bulk + bytes as f64 / self.beta
    }

    /// Bulk transfers within one node.
    pub fn bulk_time_intra(&self, messages: u64, bytes: u64) -> f64 {
        messages as f64 * self.alpha_bulk * self.intra_node_alpha_scale
            + bytes as f64 / (self.beta * 4.0)
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        Self::aries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fine_grained_is_catastrophically_slower_per_byte() {
        let n = NetworkModel::aries();
        let elements = 1_000_000u64;
        let bytes = elements * 8;
        let fine = n.fine_time(elements);
        let bulk = n.bulk_time(1, bytes);
        assert!(fine > 100.0 * bulk, "1M-element fine {fine}s should dwarf one bulk block {bulk}s");
    }

    #[test]
    fn bulk_latency_binds_for_tiny_messages() {
        let n = NetworkModel::aries();
        let t = n.bulk_time(1000, 1000 * 8);
        assert!((t - 1000.0 * n.alpha_bulk).abs() / t < 0.01, "latency-bound");
    }

    #[test]
    fn intra_node_is_cheaper_but_not_free() {
        let n = NetworkModel::aries();
        assert!(n.fine_time_intra(1000) < n.fine_time(1000));
        assert!(n.fine_time_intra(1000) > 0.0);
        assert!(n.bulk_time_intra(10, 1 << 20) < n.bulk_time(10, 1 << 20));
    }

    #[test]
    fn congestion_boundary_is_exactly_one() {
        // A gather with zero or one participant has no shared links to
        // contend on: the factor must be exactly 1.0, not 1 - c or NaN.
        let n = NetworkModel::aries();
        assert_eq!(n.congestion(0), 1.0);
        assert_eq!(n.congestion(1), 1.0);
        assert!(n.congestion(2) > 1.0);
        // strictly monotone beyond the boundary
        assert!(n.congestion(3) > n.congestion(2));
    }

    #[test]
    fn apply1_distributed_level_sanity() {
        // Fig 1 right: Apply1 at 10M nonzeros sits in the tens-to-hundreds
        // of seconds range once data is remote.
        let n = NetworkModel::aries();
        let t = n.fine_time(10_000_000);
        assert!((4.0..300.0).contains(&t), "Apply1-level fine-grained time {t}");
    }
}
