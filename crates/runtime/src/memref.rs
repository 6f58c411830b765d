//! The runtime `memref` descriptor (paper Fig. 3).
//!
//! MLIR lowers a rank-N `memref` to a struct of base pointer, offset, sizes
//! and strides; the DMA library receives exactly that. [`MemRefDesc`] is the
//! simulated-address version. Subviews (`memref.subview`) share the base
//! and adjust the offset, which is how tiles alias their parent matrix.

use axi4mlir_sim::mem::{ElemType, SimAddr, SimMemory};

/// A rank-N strided memory reference into [`SimMemory`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemRefDesc {
    /// Base (aligned) address of the underlying allocation.
    pub base: SimAddr,
    /// Offset from `base`, in elements.
    pub offset: i64,
    /// Extent of each dimension, in elements.
    pub sizes: Vec<i64>,
    /// Stride of each dimension, in elements.
    pub strides: Vec<i64>,
    /// Element type.
    pub elem: ElemType,
}

impl MemRefDesc {
    /// Allocates a contiguous row-major buffer of the given shape.
    pub fn alloc(mem: &mut SimMemory, shape: &[i64], elem: ElemType) -> Self {
        let n: i64 = shape.iter().product::<i64>().max(1);
        let base = mem.alloc(n as u64 * elem.byte_width(), 64);
        Self { base, offset: 0, sizes: shape.to_vec(), strides: row_major_strides(shape), elem }
    }

    /// Number of dimensions.
    pub(crate) fn rank(&self) -> usize {
        self.sizes.len()
    }

    /// Total number of elements in the view.
    pub fn num_elements(&self) -> i64 {
        self.sizes.iter().product::<i64>().max(0)
    }

    /// Total bytes covered by the view's elements.
    pub fn num_bytes(&self) -> u64 {
        self.num_elements() as u64 * self.elem.byte_width()
    }

    /// Address of the element at `indices`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `indices` has the wrong rank or is out of
    /// bounds.
    pub fn elem_addr(&self, indices: &[i64]) -> SimAddr {
        debug_assert_eq!(indices.len(), self.rank(), "index rank mismatch");
        let mut linear = self.offset;
        for (i, idx) in indices.iter().enumerate() {
            debug_assert!(
                *idx >= 0 && *idx < self.sizes[i],
                "index {idx} out of bounds for dim {i} of size {}",
                self.sizes[i]
            );
            linear += idx * self.strides[i];
        }
        self.base.offset(linear as u64 * self.elem.byte_width())
    }

    /// Creates a subview at `offsets` with the given `sizes`, preserving
    /// strides — the runtime image of `memref.subview` with unit steps.
    ///
    /// # Panics
    ///
    /// Panics if the subview does not fit inside the parent view.
    pub fn subview(&self, offsets: &[i64], sizes: &[i64]) -> MemRefDesc {
        let mut view = MemRefDesc { sizes: Vec::new(), strides: Vec::new(), ..*self };
        self.subview_into(offsets, sizes, &mut view);
        view
    }

    /// [`subview`](Self::subview) written over `view`, whose `sizes` and
    /// `strides` buffers are reused: a subview re-taken in a loop
    /// allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if the subview does not fit inside the parent view.
    pub fn subview_into(&self, offsets: &[i64], sizes: &[i64], view: &mut MemRefDesc) {
        assert_eq!(offsets.len(), self.rank(), "subview offsets rank mismatch");
        assert_eq!(sizes.len(), self.rank(), "subview sizes rank mismatch");
        let mut offset = self.offset;
        for i in 0..self.rank() {
            assert!(
                offsets[i] >= 0 && offsets[i] + sizes[i] <= self.sizes[i],
                "subview [{}; {}) exceeds dim {i} of size {}",
                offsets[i],
                offsets[i] + sizes[i],
                self.sizes[i]
            );
            offset += offsets[i] * self.strides[i];
        }
        view.base = self.base;
        view.offset = offset;
        view.sizes.clear();
        view.sizes.extend_from_slice(sizes);
        view.strides.clear();
        view.strides.extend_from_slice(&self.strides);
        view.elem = self.elem;
    }

    /// `true` when the innermost dimension is unit-stride — the condition
    /// under which the paper's specialized copy applies.
    pub(crate) fn unit_innermost_stride(&self) -> bool {
        self.strides.last().copied() == Some(1)
    }

    /// Length (in elements) of the longest contiguous run starting at any
    /// innermost position: the product of trailing dimensions whose layout
    /// is packed. A fully contiguous view returns `num_elements`.
    pub(crate) fn contiguous_run_elems(&self) -> i64 {
        if !self.unit_innermost_stride() {
            return 1;
        }
        let mut run = 1i64;
        for d in (0..self.rank()).rev() {
            if self.strides[d] == run {
                run *= self.sizes[d];
            } else {
                break;
            }
        }
        run
    }

    /// Iterates over the multi-dimensional indices of the view in row-major
    /// order.
    pub fn indices(&self) -> IndexIter {
        IndexIter {
            sizes: self.sizes.clone(),
            next: Some(vec![0; self.rank()]),
            done_empty: self.num_elements() == 0,
        }
    }
}

/// Row-major strides for a shape.
fn row_major_strides(shape: &[i64]) -> Vec<i64> {
    let mut strides = vec![1i64; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * shape[i + 1];
    }
    strides
}

/// Row-major index iterator produced by [`MemRefDesc::indices`].
#[derive(Clone, Debug)]
pub struct IndexIter {
    sizes: Vec<i64>,
    next: Option<Vec<i64>>,
    done_empty: bool,
}

impl Iterator for IndexIter {
    type Item = Vec<i64>;

    fn next(&mut self) -> Option<Vec<i64>> {
        if self.done_empty {
            return None;
        }
        let current = self.next.take()?;
        // Compute the successor.
        let mut succ = current.clone();
        for d in (0..self.sizes.len()).rev() {
            succ[d] += 1;
            if succ[d] < self.sizes[d] {
                self.next = Some(succ);
                return Some(current);
            }
            succ[d] = 0;
        }
        // Wrapped around: `current` was the last index.
        self.next = None;
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_strides_examples() {
        assert_eq!(row_major_strides(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(row_major_strides(&[5]), vec![1]);
        assert_eq!(row_major_strides(&[]), Vec::<i64>::new());
    }

    #[test]
    fn alloc_and_addressing() {
        let mut mem = SimMemory::new();
        let d = MemRefDesc::alloc(&mut mem, &[4, 8], ElemType::I32);
        assert_eq!(d.rank(), 2);
        assert_eq!(d.num_elements(), 32);
        assert_eq!(d.num_bytes(), 128);
        let a00 = d.elem_addr(&[0, 0]);
        let a01 = d.elem_addr(&[0, 1]);
        let a10 = d.elem_addr(&[1, 0]);
        assert_eq!(a01.0 - a00.0, 4);
        assert_eq!(a10.0 - a00.0, 32);
    }

    #[test]
    fn subview_preserves_strides() {
        let mut mem = SimMemory::new();
        let d = MemRefDesc::alloc(&mut mem, &[8, 8], ElemType::I32);
        let s = d.subview(&[2, 4], &[4, 4]);
        assert_eq!(s.strides, d.strides);
        assert_eq!(s.sizes, vec![4, 4]);
        assert_eq!(s.elem_addr(&[0, 0]), d.elem_addr(&[2, 4]));
        assert_eq!(s.elem_addr(&[3, 3]), d.elem_addr(&[5, 7]));
    }

    #[test]
    #[should_panic(expected = "exceeds dim")]
    fn oversized_subview_panics() {
        let mut mem = SimMemory::new();
        let d = MemRefDesc::alloc(&mut mem, &[4, 4], ElemType::I32);
        let _ = d.subview(&[2, 0], &[4, 4]);
    }

    #[test]
    fn contiguity_detection() {
        let mut mem = SimMemory::new();
        let d = MemRefDesc::alloc(&mut mem, &[8, 8], ElemType::I32);
        assert!(d.unit_innermost_stride());
        assert_eq!(d.contiguous_run_elems(), 64, "full buffer is one run");
        let tile = d.subview(&[0, 0], &[4, 4]);
        assert!(tile.unit_innermost_stride());
        assert_eq!(tile.contiguous_run_elems(), 4, "tile rows are runs");
        // A column view has stride 8 in its only meaningful dim.
        let col = MemRefDesc { strides: vec![8, 8], ..tile.clone() };
        assert_eq!(col.contiguous_run_elems(), 1);
        assert!(!col.unit_innermost_stride());
    }

    #[test]
    fn index_iteration_row_major() {
        let mut mem = SimMemory::new();
        let d = MemRefDesc::alloc(&mut mem, &[2, 3], ElemType::I32);
        let all: Vec<Vec<i64>> = d.indices().collect();
        assert_eq!(
            all,
            vec![vec![0, 0], vec![0, 1], vec![0, 2], vec![1, 0], vec![1, 1], vec![1, 2]]
        );
    }

    #[test]
    fn index_iteration_rank3_counts() {
        let mut mem = SimMemory::new();
        let d = MemRefDesc::alloc(&mut mem, &[2, 2, 2], ElemType::I32);
        assert_eq!(d.indices().count(), 8);
    }

    #[test]
    fn empty_view_yields_no_indices() {
        let mut mem = SimMemory::new();
        let d = MemRefDesc::alloc(&mut mem, &[0, 3], ElemType::I32);
        assert_eq!(d.indices().count(), 0);
        assert_eq!(d.num_elements(), 0);
    }
}
