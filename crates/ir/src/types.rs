//! The type system: integers, floats, `index`, and strided `memref`s.

use std::fmt;

/// Marker for a dynamic dimension in a `memref` shape (`?` in MLIR).
pub const DYNAMIC: i64 = -1;

/// A ranked, optionally strided memory-reference type, e.g.
/// `memref<60x80xi32>` or `memref<4x4xi32, strided<[80, 1], offset: ?>>`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct MemRefType {
    /// Extents; [`DYNAMIC`] for `?`.
    pub shape: Vec<i64>,
    /// Element type (must be a scalar type).
    pub elem: Box<Type>,
    /// Explicit strides (elements); `None` means the default row-major
    /// layout.
    pub strides: Option<Vec<i64>>,
}

impl MemRefType {
    /// A row-major `memref` of the given shape.
    pub fn contiguous(shape: Vec<i64>, elem: Type) -> Self {
        Self { shape, elem: Box::new(elem), strides: None }
    }

    /// A strided `memref` (the type of a `memref.subview` result).
    pub fn strided(shape: Vec<i64>, elem: Type, strides: Vec<i64>) -> Self {
        Self { shape, elem: Box::new(elem), strides: Some(strides) }
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total element count, if all dimensions are static.
    pub fn num_elements(&self) -> Option<i64> {
        if self.shape.contains(&DYNAMIC) {
            None
        } else {
            Some(self.shape.iter().product())
        }
    }
}

/// An IR type.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Type {
    /// Signless integer of the given bit width (`i1`, `i32`, `i64`, ...).
    Int(u32),
    /// IEEE float of the given bit width (`f32`, `f64`).
    Float(u32),
    /// Target-width integer used for loop bounds and subscripts.
    Index,
    /// Ranked memory reference.
    MemRef(MemRefType),
    /// The empty type of ops with no results (printed `()`).
    Unit,
}

impl Type {
    /// Shorthand for `i32`.
    pub fn i32() -> Type {
        Type::Int(32)
    }

    /// Shorthand for `f32`.
    pub fn f32() -> Type {
        Type::Float(32)
    }

    /// Shorthand for `index`.
    pub fn index() -> Type {
        Type::Index
    }

    /// The memref payload if this is a memref type.
    pub fn as_memref(&self) -> Option<&MemRefType> {
        match self {
            Type::MemRef(m) => Some(m),
            _ => None,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int(w) => write!(f, "i{w}"),
            Type::Float(w) => write!(f, "f{w}"),
            Type::Index => write!(f, "index"),
            Type::Unit => write!(f, "()"),
            Type::MemRef(m) => {
                write!(f, "memref<")?;
                for d in &m.shape {
                    if *d == DYNAMIC {
                        write!(f, "?x")?;
                    } else {
                        write!(f, "{d}x")?;
                    }
                }
                write!(f, "{}", m.elem)?;
                if let Some(strides) = &m.strides {
                    write!(f, ", strided<[")?;
                    for (i, s) in strides.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{s}")?;
                    }
                    write!(f, "]>")?;
                }
                write!(f, ">")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_display() {
        assert_eq!(Type::i32().to_string(), "i32");
        assert_eq!(Type::Int(64).to_string(), "i64");
        assert_eq!(Type::f32().to_string(), "f32");
        assert_eq!(Type::index().to_string(), "index");
        assert_eq!(Type::Unit.to_string(), "()");
    }

    #[test]
    fn memref_display_contiguous() {
        let t = Type::MemRef(MemRefType::contiguous(vec![60, 80], Type::i32()));
        assert_eq!(t.to_string(), "memref<60x80xi32>");
    }

    #[test]
    fn memref_display_strided_and_dynamic() {
        let t = Type::MemRef(MemRefType::strided(vec![4, DYNAMIC], Type::f32(), vec![80, 1]));
        assert_eq!(t.to_string(), "memref<4x?xf32, strided<[80, 1]>>");
    }

    #[test]
    fn memref_helpers() {
        let m = MemRefType::contiguous(vec![4, 4], Type::i32());
        assert_eq!(m.rank(), 2);
        assert_eq!(m.num_elements(), Some(16));
        let d = MemRefType::contiguous(vec![4, DYNAMIC], Type::i32());
        assert_eq!(d.num_elements(), None);
    }

    #[test]
    fn scalar_predicate() {
        assert!(Type::MemRef(MemRefType::contiguous(vec![1], Type::i32())).as_memref().is_some());
        assert!(Type::i32().as_memref().is_none());
    }
}
