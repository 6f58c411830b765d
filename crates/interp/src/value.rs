//! Runtime values.

use axi4mlir_runtime::memref::MemRefDesc;

/// A value flowing through interpreted IR.
#[derive(Clone, Debug, PartialEq)]
pub enum RtValue {
    /// An `index` value.
    Index(i64),
    /// An `i32` value.
    I32(i32),
    /// An `f32` value.
    F32(f32),
    /// A memref descriptor (Fig. 3).
    MemRef(MemRefDesc),
}

impl RtValue {
    /// The index payload.
    pub(crate) fn as_index(&self) -> Option<i64> {
        match self {
            RtValue::Index(v) => Some(*v),
            _ => None,
        }
    }

    /// Any integer payload widened to i64.
    pub(crate) fn as_int_any(&self) -> Option<i64> {
        match self {
            RtValue::Index(v) => Some(*v),
            RtValue::I32(v) => Some(i64::from(*v)),
            _ => None,
        }
    }

    /// The memref payload.
    pub fn as_memref(&self) -> Option<&MemRefDesc> {
        match self {
            RtValue::MemRef(d) => Some(d),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(RtValue::Index(3).as_index(), Some(3));
        assert_eq!(RtValue::I32(-2).as_int_any(), Some(-2));
        assert_eq!(RtValue::Index(9).as_int_any(), Some(9));
        assert!(RtValue::I32(1).as_index().is_none());
        assert!(RtValue::F32(1.0).as_int_any().is_none());
    }
}
