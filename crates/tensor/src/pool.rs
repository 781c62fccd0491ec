//! Bump-allocated tensor memory pool with 4-byte-offset addressing.
//!
//! The paper's script instructions address tensors by 4-byte *offsets into a
//! globally shared memory pool* rather than raw pointers (§III-B1): DyNet
//! grabs one large DRAM region up front and sub-allocates tensors from it, so
//! a `u32` element offset suffices for pools up to 16 GB of `f32` data. This
//! module reproduces that allocator: [`Pool`] owns the backing buffer and
//! hands out [`PoolOffset`] handles, and is `reset` between training batches
//! exactly like DyNet's forward/backward scratch pools.

use std::error::Error;
use std::fmt;

/// A 4-byte element offset into a [`Pool`], the operand representation used
/// inside encoded VPPS script instructions.
///
/// # Example
///
/// ```
/// use vpps_tensor::Pool;
///
/// let mut pool = Pool::with_capacity(16);
/// let off = pool.alloc(4)?;
/// pool.slice_mut(off, 4).copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(pool.slice(off, 4)[2], 3.0);
/// # Ok::<(), vpps_tensor::PoolOverflowError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PoolOffset(pub u32);

impl PoolOffset {
    /// The raw element offset.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Byte offset of the tensor start (what the paper's 4-byte operand
    /// fields actually store, given a 16 GB pool bound).
    pub fn byte_offset(self) -> u64 {
        u64::from(self.0) * std::mem::size_of::<f32>() as u64
    }
}

impl fmt::Display for PoolOffset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// Error returned when a [`Pool`] allocation exceeds the pool's capacity
/// (the analogue of exhausting DyNet's up-front DRAM reservation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolOverflowError {
    requested: usize,
    used: usize,
    capacity: usize,
}

impl fmt::Display for PoolOverflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "memory pool overflow: requested {} elements with {}/{} in use",
            self.requested, self.used, self.capacity
        )
    }
}

impl Error for PoolOverflowError {}

/// Bump allocator over a contiguous `f32` buffer.
///
/// All tensors produced while processing one batch live here; [`Pool::reset`]
/// reclaims everything in O(1) without freeing the backing memory, matching
/// DyNet's per-batch scratch reuse.
#[derive(Debug, Clone)]
pub struct Pool {
    /// The backing buffer: as long as the high-water mark and grown on
    /// demand, so a pool asks the allocator for what its batches reached,
    /// never for its whole capacity (a 16 MB reservation per `Handle` that
    /// mostly stays untouched still costs address space, and resident pages
    /// whenever the allocator recycles a freed buffer instead of mapping a
    /// fresh one).
    data: Vec<f32>,
    /// Logical bound on `used`: what [`Pool::alloc`] refuses to exceed.
    capacity: usize,
    used: usize,
    floor: usize,
}

impl Pool {
    /// Creates a pool that can hold `capacity` `f32` elements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` exceeds `u32::MAX` elements — offsets must fit the
    /// 4-byte operand encoding.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(
            capacity <= u32::MAX as usize,
            "pool capacity must be addressable by a 4-byte offset"
        );
        Self {
            data: Vec::new(),
            capacity,
            used: 0,
            floor: 0,
        }
    }

    /// Allocates `len` elements, zero-initialized, returning their offset.
    ///
    /// # Errors
    ///
    /// Returns [`PoolOverflowError`] if the pool has insufficient space.
    pub fn alloc(&mut self, len: usize) -> Result<PoolOffset, PoolOverflowError> {
        let end = self.used + len;
        if end > self.capacity {
            return Err(PoolOverflowError {
                requested: len,
                used: self.used,
                capacity: self.capacity,
            });
        }
        let off = PoolOffset(self.used as u32);
        // Freshly reclaimed regions may hold stale data from the previous
        // batch; accumulating ops (`+=`) require zeroed destinations. What
        // lies past the high-water mark is appended, zeroed.
        let reclaimed = end.min(self.data.len());
        self.data[self.used..reclaimed].fill(0.0);
        if end > self.data.len() {
            self.data.resize(end, 0.0);
        }
        self.used = end;
        Ok(off)
    }

    /// Borrows `len` elements starting at `off`.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the allocated region.
    pub fn slice(&self, off: PoolOffset, len: usize) -> &[f32] {
        let start = off.0 as usize;
        assert!(start + len <= self.used, "pool read past allocated region");
        &self.data[start..start + len]
    }

    /// Mutably borrows `len` elements starting at `off`.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the allocated region.
    pub fn slice_mut(&mut self, off: PoolOffset, len: usize) -> &mut [f32] {
        let start = off.0 as usize;
        assert!(start + len <= self.used, "pool write past allocated region");
        &mut self.data[start..start + len]
    }

    /// Number of elements currently allocated.
    pub fn used(&self) -> usize {
        self.used
    }

    /// Total capacity in elements.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Maximum `used` observed since construction — sizing feedback for the
    /// capacity.
    pub fn high_water(&self) -> usize {
        self.data.len()
    }

    /// Reclaims all allocations above the persistent floor in O(1). Offsets
    /// handed out after the last [`Pool::freeze_floor`] must not be used
    /// afterwards.
    pub fn reset(&mut self) {
        self.used = self.floor;
    }

    /// Marks everything allocated so far as *persistent*: subsequent
    /// [`Pool::reset`] calls rewind to this point instead of zero. Used for
    /// batch-invariant residents such as embedding lookup tables.
    pub fn freeze_floor(&mut self) {
        self.floor = self.used;
    }

    /// The persistent floor in elements.
    pub fn floor(&self) -> usize {
        self.floor
    }

    /// Raw read access to the backing buffer up to the high-water mark, which
    /// covers every live allocation (used by the threaded VPP executor, which
    /// partitions writes by the barrier protocol).
    pub fn raw(&self) -> &[f32] {
        &self.data
    }

    /// Raw mutable access to the backing buffer up to the high-water mark.
    pub fn raw_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_sequential() {
        let mut p = Pool::with_capacity(10);
        let a = p.alloc(3).unwrap();
        let b = p.alloc(4).unwrap();
        assert_eq!(a.raw(), 0);
        assert_eq!(b.raw(), 3);
        assert_eq!(p.used(), 7);
    }

    #[test]
    fn alloc_zeroes_memory() {
        let mut p = Pool::with_capacity(4);
        let a = p.alloc(4).unwrap();
        p.slice_mut(a, 4).copy_from_slice(&[9.0; 4]);
        p.reset();
        let b = p.alloc(4).unwrap();
        assert_eq!(p.slice(b, 4), &[0.0; 4]);
    }

    #[test]
    fn overflow_is_reported_not_panicked() {
        let mut p = Pool::with_capacity(4);
        p.alloc(3).unwrap();
        let err = p.alloc(2).unwrap_err();
        assert!(err.to_string().contains("overflow"));
    }

    #[test]
    fn reset_reclaims_everything() {
        let mut p = Pool::with_capacity(4);
        p.alloc(4).unwrap();
        p.reset();
        assert_eq!(p.used(), 0);
        assert!(p.alloc(4).is_ok());
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut p = Pool::with_capacity(100);
        p.alloc(60).unwrap();
        p.reset();
        p.alloc(10).unwrap();
        assert_eq!(p.high_water(), 60);
    }

    #[test]
    fn buffer_is_only_as_long_as_the_high_water_mark() {
        let mut p = Pool::with_capacity(100);
        assert_eq!((p.capacity(), p.raw().len()), (100, 0));
        let a = p.alloc(60).unwrap();
        p.slice_mut(a, 60).fill(7.0);
        p.reset();
        // Half reclaimed (stale sevens), half never reached: all zero.
        p.alloc(30).unwrap();
        let b = p.alloc(50).unwrap();
        assert_eq!(p.slice(b, 50), &[0.0; 50]);
        assert_eq!(p.raw().len(), 80);
        assert_eq!(p.capacity(), 100);
        assert!(p.alloc(21).is_err());
    }

    #[test]
    #[should_panic(expected = "past allocated")]
    fn read_past_allocation_rejected() {
        let mut p = Pool::with_capacity(8);
        let a = p.alloc(2).unwrap();
        let _ = p.slice(a, 4);
    }

    #[test]
    fn byte_offset_is_four_times_raw() {
        assert_eq!(PoolOffset(3).byte_offset(), 12);
    }

    #[test]
    fn frozen_floor_survives_reset() {
        let mut p = Pool::with_capacity(16);
        let table = p.alloc(4).unwrap();
        p.slice_mut(table, 4).copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        p.freeze_floor();
        let scratch = p.alloc(4).unwrap();
        p.slice_mut(scratch, 4).fill(9.0);
        p.reset();
        assert_eq!(p.used(), 4);
        assert_eq!(p.slice(table, 4), &[1.0, 2.0, 3.0, 4.0]);
        let fresh = p.alloc(4).unwrap();
        assert_eq!(fresh.raw(), 4);
        assert_eq!(p.slice(fresh, 4), &[0.0; 4]);
    }
}
