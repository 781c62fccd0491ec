//! Weight-matrix distribution over register partitions (paper §III-A1).
//!
//! Registers available to each CTA's threads are split into equal-size
//! *partitions* (the same partitioning across all CTAs), and weight matrices
//! are cut into chunks of `warps_per_cta × rpw` consecutive rows which are
//! assigned to `(CTA, partition)` slots in a round-robin fashion over CTAs —
//! the scheme of the paper's Fig. 4. Each *row* is held by exactly one warp
//! (coalesced load, no inter-warp sync during matrix-vector products) and
//! each warp holds `rpw` consecutive rows (fewer remote atomics during
//! transposed products).
//!
//! The partition size follows Eq. 1 of the paper:
//!
//! ```text
//! P_size = TBSize × rpw × ceil(row_max / warpSize)
//! ```
//!
//! Gradient matrices receive partitions through the same round-robin when
//! register capacity allows (§III-C2 decides when it does not).

use dyn_graph::ParamId;
use gpu_sim::DeviceConfig;

use crate::error::VppsError;

/// Registers per thread reserved for the script-interpretation routines
/// (paper footnote 6: "we conservatively set aside 31 registers per thread
/// for interpretation routines").
pub const RESERVED_INTERP_REGS: usize = 31;

/// Registers per thread reserved for staging operand vectors during matrix
/// operations (paper footnote 6: "32 additional registers for caching
/// vectors").
pub const RESERVED_VECTOR_REGS: usize = 32;

/// CTA width fixed by the paper's analysis (§III-A1: at least 256 resident
/// threads are needed to address the full 256 KB register file, and wider
/// CTAs waste registers on thread overhead).
pub const THREADS_PER_CTA: usize = 256;

/// Identifier of one register-cached matrix chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkId(pub u32);

impl ChunkId {
    /// Raw index into [`Distribution::chunks`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A contiguous block of matrix rows cached in one partition of one virtual
/// persistent processor.
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    /// The parameter this chunk belongs to.
    pub param: ParamId,
    /// First row held by this chunk.
    pub row_start: usize,
    /// Number of rows held (≤ `warps_per_cta × rpw`; the final chunk of a
    /// matrix may be shorter).
    pub rows: usize,
    /// Row length (matrix column count).
    pub cols: usize,
    /// Owning virtual persistent processor (CTA).
    pub vpp: usize,
    /// Partition slot within the owning VPP.
    pub partition: usize,
    /// `true` if this chunk caches the parameter's *gradient* rather than
    /// its value.
    pub is_grad: bool,
    /// First element of this chunk in the plan's register arena: chunks sit
    /// back to back in [`ChunkId`] order. The host analogue of the literal
    /// register index the specialized kernel bakes in — lowering folds it
    /// into its micro-ops and [`crate::exec::regcache::RegCache`] lays its
    /// storage out by it.
    pub offset: u32,
}

impl Chunk {
    /// Number of cached elements.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// `true` if the chunk holds no elements (never true for constructed
    /// chunks; provided alongside [`Chunk::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Geometry parameters of a distribution, derived from the device and the
/// model's `row_max` per Eq. 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistGeometry {
    /// SM count of the device.
    pub num_sms: usize,
    /// Persistent CTAs per SM (1 or 2; paper §III-A1).
    pub ctas_per_sm: usize,
    /// Threads per CTA (always [`THREADS_PER_CTA`]).
    pub threads_per_cta: usize,
    /// Warp width.
    pub warp_size: usize,
    /// Rows per warp (`rpw` in Eq. 1).
    pub rpw: usize,
    /// Longest parameter row in the model (`row_max` in Eq. 1).
    pub row_max: usize,
    /// Registers per thread available for caching after reservations.
    pub cache_regs_per_thread: usize,
}

impl DistGeometry {
    /// Derives the geometry for a device, CTA count and `rpw`.
    ///
    /// # Errors
    ///
    /// Returns [`VppsError::RowTooLong`] if even `rpw = 1` cannot fit a row
    /// of `row_max` elements in the per-thread register budget, and
    /// [`VppsError::NoParameters`] if `row_max` is zero.
    pub fn derive(
        device: &DeviceConfig,
        ctas_per_sm: usize,
        rpw: usize,
        row_max: usize,
    ) -> Result<Self, VppsError> {
        assert!(
            ctas_per_sm == 1 || ctas_per_sm == 2,
            "VPPS supports 1 or 2 CTAs per SM"
        );
        assert!(rpw >= 1, "rows-per-warp must be at least 1");
        if row_max == 0 {
            return Err(VppsError::NoParameters);
        }
        let total_regs_per_thread = device.regs_per_thread(THREADS_PER_CTA, ctas_per_sm);
        let reserved = RESERVED_INTERP_REGS + RESERVED_VECTOR_REGS;
        let cache_regs_per_thread = total_regs_per_thread.saturating_sub(reserved);
        let geo = Self {
            num_sms: device.num_sms,
            ctas_per_sm,
            threads_per_cta: THREADS_PER_CTA,
            warp_size: device.warp_size,
            rpw,
            row_max,
            cache_regs_per_thread,
        };
        if geo.regs_per_thread_per_partition() > cache_regs_per_thread {
            return Err(VppsError::RowTooLong {
                row_len: row_max,
                max_len: cache_regs_per_thread / rpw * device.warp_size,
            });
        }
        Ok(geo)
    }

    /// Warps per CTA.
    pub fn warps_per_cta(&self) -> usize {
        self.threads_per_cta / self.warp_size
    }

    /// Registers each *thread* devotes to one partition:
    /// `rpw × ceil(row_max / warp_size)`.
    pub fn regs_per_thread_per_partition(&self) -> usize {
        self.rpw * self.row_max.div_ceil(self.warp_size)
    }

    /// Partition size in registers across the whole CTA — Eq. 1 verbatim.
    pub fn partition_size(&self) -> usize {
        self.threads_per_cta * self.regs_per_thread_per_partition()
    }

    /// Partitions available in each VPP.
    pub fn partitions_per_vpp(&self) -> usize {
        self.cache_regs_per_thread / self.regs_per_thread_per_partition()
    }

    /// Total virtual persistent processors on the device.
    pub fn total_vpps(&self) -> usize {
        self.num_sms * self.ctas_per_sm
    }

    /// Total chunk slots on the device.
    pub fn total_slots(&self) -> usize {
        self.total_vpps() * self.partitions_per_vpp()
    }

    /// Rows of one matrix a single chunk carries: every warp of the CTA takes
    /// `rpw` consecutive rows.
    pub fn rows_per_chunk(&self) -> usize {
        self.warps_per_cta() * self.rpw
    }

    /// The largest valid `rpw` for this device/CTA configuration and
    /// `row_max` (paper: `row_max = 1024` with one CTA per SM allows up to
    /// six rows per warp).
    pub fn max_rpw(device: &DeviceConfig, ctas_per_sm: usize, row_max: usize) -> usize {
        let total = device.regs_per_thread(THREADS_PER_CTA, ctas_per_sm);
        let cache = total.saturating_sub(RESERVED_INTERP_REGS + RESERVED_VECTOR_REGS);
        let per_row = row_max.div_ceil(device.warp_size).max(1);
        cache / per_row
    }
}

/// Shape of one dense parameter to distribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamShape {
    /// Parameter identity in the model.
    pub id: ParamId,
    /// Row count.
    pub rows: usize,
    /// Column count (row length).
    pub cols: usize,
}

/// The complete placement of every cached matrix (and optionally gradient)
/// chunk onto `(VPP, partition)` slots.
#[derive(Debug, Clone)]
pub struct Distribution {
    geometry: DistGeometry,
    chunks: Vec<Chunk>,
    value_chunks: Vec<Vec<ChunkId>>,
    grad_chunks: Vec<Vec<ChunkId>>,
    per_vpp: Vec<Vec<ChunkId>>,
    cache_grads: bool,
    param_count: usize,
}

impl Distribution {
    /// Distributes `shapes` over the register partitions described by
    /// `geometry`, optionally giving gradients their own partitions.
    ///
    /// Chunks are assigned round-robin over VPPs first, then over partition
    /// levels, continuing the counter across matrices (Fig. 4).
    ///
    /// # Errors
    ///
    /// * [`VppsError::NoParameters`] if `shapes` is empty.
    /// * [`VppsError::ModelTooLarge`] if the chunks exceed available slots.
    ///
    /// # Panics
    ///
    /// Panics if chunks that fit the slots do not fit a register arena of
    /// `u32` offsets (a chunk is no larger than its partition, so that takes
    /// a device of tens of thousands of SMs).
    pub fn build(
        shapes: &[ParamShape],
        geometry: DistGeometry,
        cache_grads: bool,
    ) -> Result<Self, VppsError> {
        if shapes.is_empty() {
            return Err(VppsError::NoParameters);
        }
        let max_index = shapes.iter().map(|s| s.id.index()).max().unwrap_or(0);
        let mut value_chunks = vec![Vec::new(); max_index + 1];
        let mut grad_chunks = vec![Vec::new(); max_index + 1];
        let mut per_vpp = vec![Vec::new(); geometry.total_vpps()];
        let mut chunks = Vec::new();

        let rows_per_chunk = geometry.rows_per_chunk();
        let total_vpps = geometry.total_vpps();
        let mut slot = 0usize;

        let passes: &[bool] = if cache_grads {
            &[false, true]
        } else {
            &[false]
        };
        for &is_grad in passes {
            for shape in shapes {
                let mut row = 0;
                while row < shape.rows {
                    let rows = rows_per_chunk.min(shape.rows - row);
                    let vpp = slot % total_vpps;
                    let partition = slot / total_vpps;
                    let id = ChunkId(chunks.len() as u32);
                    chunks.push(Chunk {
                        param: shape.id,
                        row_start: row,
                        rows,
                        cols: shape.cols,
                        vpp,
                        partition,
                        is_grad,
                        offset: 0, // assigned below, once the chunks are known to fit
                    });
                    if is_grad {
                        grad_chunks[shape.id.index()].push(id);
                    } else {
                        value_chunks[shape.id.index()].push(id);
                    }
                    per_vpp[vpp].push(id);
                    slot += 1;
                    row += rows;
                }
            }
        }

        if slot > geometry.total_slots() {
            return Err(VppsError::ModelTooLarge {
                required_chunks: slot,
                available_chunks: geometry.total_slots(),
            });
        }
        let mut arena_len = 0usize;
        for c in &mut chunks {
            c.offset = u32::try_from(arena_len).expect("register arena exceeds u32 offsets");
            arena_len += c.len();
        }

        Ok(Self {
            geometry,
            chunks,
            value_chunks,
            grad_chunks,
            per_vpp,
            cache_grads,
            param_count: shapes.len(),
        })
    }

    /// The geometry this distribution was built for.
    pub fn geometry(&self) -> &DistGeometry {
        &self.geometry
    }

    /// All chunks, indexed by [`ChunkId`].
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// Borrows one chunk.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a chunk of this distribution.
    pub fn chunk(&self, id: ChunkId) -> &Chunk {
        &self.chunks[id.index()]
    }

    /// Value chunks of a parameter, in row order.
    ///
    /// # Panics
    ///
    /// Panics if the parameter was not part of the distributed shapes.
    pub fn value_chunks_of(&self, param: ParamId) -> &[ChunkId] {
        &self.value_chunks[param.index()]
    }

    /// Gradient chunks of a parameter (empty when gradients are not cached).
    pub fn grad_chunks_of(&self, param: ParamId) -> &[ChunkId] {
        &self.grad_chunks[param.index()]
    }

    /// Chunks owned by one VPP.
    ///
    /// # Panics
    ///
    /// Panics if `vpp >= geometry().total_vpps()`.
    pub fn chunks_of_vpp(&self, vpp: usize) -> &[ChunkId] {
        &self.per_vpp[vpp]
    }

    /// `true` if gradients were given register partitions.
    pub fn caches_gradients(&self) -> bool {
        self.cache_grads
    }

    /// Number of distributed parameters.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// Number of occupied slots.
    pub fn used_slots(&self) -> usize {
        self.chunks.len()
    }

    /// Total register-cached bytes (values + gradients).
    pub fn cached_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| (c.len() * 4) as u64).sum()
    }

    /// Maximum over VPPs of cached chunks — with round-robin this differs
    /// from the minimum by at most one, the balance property Fig. 4 is after.
    pub fn max_chunks_per_vpp(&self) -> usize {
        self.per_vpp.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Minimum over VPPs of cached chunks.
    pub fn min_chunks_per_vpp(&self) -> usize {
        self.per_vpp.iter().map(Vec::len).min().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u32) -> ParamId {
        // ParamId construction for tests: route through a model.
        let mut m = dyn_graph::Model::new(0);
        let mut last = None;
        for k in 0..=i {
            last = Some(m.add_matrix(&format!("p{k}"), 1, 1));
        }
        last.unwrap()
    }

    fn titan() -> DeviceConfig {
        DeviceConfig::titan_v()
    }

    #[test]
    fn eq1_partition_size_matches_paper_example() {
        // Fig. 4 example: CTA width 128 would give partition 1024 with
        // 8 thread-registers per partition; we verify the formula shape with
        // our fixed width 256 and row_max 256, rpw 1: 256 * 1 * 8 = 2048.
        let geo = DistGeometry::derive(&titan(), 1, 1, 256).unwrap();
        assert_eq!(geo.regs_per_thread_per_partition(), 8);
        assert_eq!(geo.partition_size(), 2048);
    }

    #[test]
    fn max_rpw_matches_paper_footnote() {
        // Paper footnote 6: row_max = 1024, one CTA per SM -> max rpw = 6
        // (192 cache registers / 32 per row).
        assert_eq!(DistGeometry::max_rpw(&titan(), 1, 1024), 6);
    }

    #[test]
    fn cache_budget_single_vs_double_cta() {
        let one = DistGeometry::derive(&titan(), 1, 1, 256).unwrap();
        let two = DistGeometry::derive(&titan(), 2, 1, 256).unwrap();
        assert_eq!(one.cache_regs_per_thread, 255 - 63);
        assert_eq!(two.cache_regs_per_thread, 128 - 63);
        assert_eq!(one.total_vpps(), 80);
        assert_eq!(two.total_vpps(), 160);
    }

    #[test]
    fn row_too_long_detected() {
        // row_max so large a single row exceeds 192 registers per thread:
        // 192 * 32 = 6144 elements max.
        let err = DistGeometry::derive(&titan(), 1, 1, 7000).unwrap_err();
        assert!(matches!(err, VppsError::RowTooLong { .. }));
    }

    #[test]
    fn chunks_cover_every_row_exactly_once() {
        let geo = DistGeometry::derive(&titan(), 2, 1, 256).unwrap();
        let p0 = pid(0);
        let p1 = pid(1);
        let shapes = [
            ParamShape {
                id: p0,
                rows: 256,
                cols: 256,
            },
            ParamShape {
                id: p1,
                rows: 100,
                cols: 200,
            },
        ];
        let dist = Distribution::build(&shapes, geo, true).unwrap();
        for shape in &shapes {
            let mut covered = vec![0u8; shape.rows];
            for cid in dist.value_chunks_of(shape.id) {
                let c = dist.chunk(*cid);
                assert!(!c.is_grad);
                for r in c.row_start..c.row_start + c.rows {
                    covered[r] += 1;
                }
            }
            assert!(
                covered.iter().all(|&n| n == 1),
                "rows must be covered exactly once"
            );
        }
    }

    #[test]
    fn gradient_chunks_mirror_value_chunks() {
        let geo = DistGeometry::derive(&titan(), 2, 1, 256).unwrap();
        let p = pid(0);
        let shapes = [ParamShape {
            id: p,
            rows: 256,
            cols: 256,
        }];
        let dist = Distribution::build(&shapes, geo, true).unwrap();
        assert_eq!(dist.value_chunks_of(p).len(), dist.grad_chunks_of(p).len());
        assert!(dist.caches_gradients());
        for (v, g) in dist.value_chunks_of(p).iter().zip(dist.grad_chunks_of(p)) {
            assert_eq!(dist.chunk(*v).row_start, dist.chunk(*g).row_start);
            assert_eq!(dist.chunk(*v).rows, dist.chunk(*g).rows);
            assert!(dist.chunk(*g).is_grad);
        }
    }

    #[test]
    fn no_grad_caching_allocates_no_grad_chunks() {
        let geo = DistGeometry::derive(&titan(), 2, 1, 256).unwrap();
        let p = pid(0);
        let dist = Distribution::build(
            &[ParamShape {
                id: p,
                rows: 64,
                cols: 256,
            }],
            geo,
            false,
        )
        .unwrap();
        assert!(dist.grad_chunks_of(p).is_empty());
        assert!(!dist.caches_gradients());
    }

    #[test]
    fn round_robin_over_vpps_first() {
        let geo = DistGeometry::derive(&titan(), 1, 1, 256).unwrap();
        let p = pid(0);
        // 256 rows / (8 warps * 1 rpw) = 32 chunks over 80 VPPs.
        let dist = Distribution::build(
            &[ParamShape {
                id: p,
                rows: 256,
                cols: 256,
            }],
            geo,
            false,
        )
        .unwrap();
        for (i, cid) in dist.value_chunks_of(p).iter().enumerate() {
            let c = dist.chunk(*cid);
            assert_eq!(c.vpp, i % 80);
            assert_eq!(c.partition, i / 80);
        }
    }

    #[test]
    fn imbalance_is_at_most_one_chunk() {
        let geo = DistGeometry::derive(&titan(), 2, 1, 256).unwrap();
        let shapes: Vec<ParamShape> = (0..10)
            .map(|i| ParamShape {
                id: pid(i),
                rows: 256,
                cols: 256,
            })
            .collect();
        let dist = Distribution::build(&shapes, geo, true).unwrap();
        assert!(dist.max_chunks_per_vpp() - dist.min_chunks_per_vpp() <= 1);
    }

    #[test]
    fn too_many_chunks_is_an_error() {
        let geo = DistGeometry::derive(&titan(), 2, 1, 1024).unwrap();
        // partitions_per_vpp = (128-63)/32 = 2 -> 160 VPPs * 2 = 320 slots.
        // One 1024x1024 matrix = 128 value chunks; with grads 256; four
        // matrices = 1024 chunks > 320 slots.
        let shapes: Vec<ParamShape> = (0..4)
            .map(|i| ParamShape {
                id: pid(i),
                rows: 1024,
                cols: 1024,
            })
            .collect();
        let err = Distribution::build(&shapes, geo, true).unwrap_err();
        assert!(matches!(err, VppsError::ModelTooLarge { .. }));
    }

    #[test]
    fn paper_occupancy_story_hidden_256_vs_384() {
        // §IV-C: hidden 256 fits 2 CTAs/SM; hidden 384 forces 1 CTA/SM.
        // Model 13 h x h matrices with gradients, like Tree-LSTM.
        let shapes_of = |h: usize| -> Vec<ParamShape> {
            (0..13)
                .map(|i| ParamShape {
                    id: pid(i),
                    rows: h,
                    cols: h,
                })
                .collect()
        };
        let geo256 = DistGeometry::derive(&titan(), 2, 1, 256).unwrap();
        assert!(Distribution::build(&shapes_of(256), geo256, true).is_ok());

        let geo384_two = DistGeometry::derive(&titan(), 2, 1, 384).unwrap();
        assert!(Distribution::build(&shapes_of(384), geo384_two, true).is_err());
        let geo384_one = DistGeometry::derive(&titan(), 1, 1, 384).unwrap();
        assert!(Distribution::build(&shapes_of(384), geo384_one, true).is_ok());
    }

    #[test]
    fn cached_bytes_accounts_values_and_grads() {
        let geo = DistGeometry::derive(&titan(), 2, 1, 128).unwrap();
        let p = pid(0);
        let with_grads = Distribution::build(
            &[ParamShape {
                id: p,
                rows: 128,
                cols: 128,
            }],
            geo,
            true,
        )
        .unwrap();
        let without = Distribution::build(
            &[ParamShape {
                id: p,
                rows: 128,
                cols: 128,
            }],
            geo,
            false,
        )
        .unwrap();
        assert_eq!(with_grads.cached_bytes(), 2 * without.cached_bytes());
        assert_eq!(without.cached_bytes(), 128 * 128 * 4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_shapes() -> impl Strategy<Value = Vec<(usize, usize)>> {
        prop::collection::vec((1usize..300, 1usize..300), 1..12)
    }

    fn build_ids(count: usize) -> Vec<ParamId> {
        let mut m = dyn_graph::Model::new(0);
        (0..count)
            .map(|i| m.add_matrix(&format!("p{i}"), 1, 1))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// For arbitrary shape sets that fit, every matrix row is covered by
        /// exactly one value chunk, chunks respect the per-chunk row bound,
        /// and the round-robin keeps per-VPP counts within one of each other.
        #[test]
        fn distribution_invariants(
            raw in arb_shapes(),
            ctas in 1usize..3,
            rpw in 1usize..4,
            cache_grads in any::<bool>(),
        ) {
            let device = gpu_sim::DeviceConfig::titan_v();
            let ids = build_ids(raw.len());
            let shapes: Vec<ParamShape> = raw
                .iter()
                .zip(&ids)
                .map(|(&(rows, cols), &id)| ParamShape { id, rows, cols })
                .collect();
            let row_max = raw.iter().map(|&(_, c)| c).max().unwrap();
            let Ok(geo) = DistGeometry::derive(&device, ctas, rpw, row_max) else {
                return Ok(()); // row too long for this config: fine
            };
            let Ok(dist) = Distribution::build(&shapes, geo, cache_grads) else {
                return Ok(()); // capacity exceeded: fine
            };

            for shape in &shapes {
                let mut covered = vec![0u32; shape.rows];
                for cid in dist.value_chunks_of(shape.id) {
                    let c = dist.chunk(*cid);
                    prop_assert!(c.rows <= geo.rows_per_chunk());
                    prop_assert_eq!(c.cols, shape.cols);
                    for r in c.row_start..c.row_start + c.rows {
                        covered[r] += 1;
                    }
                }
                prop_assert!(covered.iter().all(|&n| n == 1), "row covered != once");
                if cache_grads {
                    prop_assert_eq!(
                        dist.value_chunks_of(shape.id).len(),
                        dist.grad_chunks_of(shape.id).len()
                    );
                } else {
                    prop_assert!(dist.grad_chunks_of(shape.id).is_empty());
                }
            }
            prop_assert!(dist.max_chunks_per_vpp() - dist.min_chunks_per_vpp() <= 1);
            prop_assert!(dist.used_slots() <= geo.total_slots());

            // Every chunk's partition fits the partition budget.
            for c in dist.chunks() {
                prop_assert!(c.partition < geo.partitions_per_vpp());
                prop_assert!(c.vpp < geo.total_vpps());
            }
        }

        /// Eq. 1 consistency: partition size equals CTA width times the
        /// per-thread registers per partition, and the per-thread budget is
        /// never exceeded.
        #[test]
        fn eq1_budget_never_exceeded(row_max in 1usize..2000, ctas in 1usize..3, rpw in 1usize..8) {
            let device = gpu_sim::DeviceConfig::titan_v();
            if let Ok(geo) = DistGeometry::derive(&device, ctas, rpw, row_max) {
                prop_assert_eq!(
                    geo.partition_size(),
                    geo.threads_per_cta * geo.regs_per_thread_per_partition()
                );
                prop_assert!(
                    geo.partitions_per_vpp() * geo.regs_per_thread_per_partition()
                        <= geo.cache_regs_per_thread
                );
                prop_assert!(geo.partitions_per_vpp() >= 1);
            }
        }
    }
}
