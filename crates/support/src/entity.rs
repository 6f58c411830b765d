//! Typed entity identifiers and dense arenas.
//!
//! Compilers allocate many small objects (operations, blocks, values) that
//! reference each other. Using raw references in Rust leads to borrow-checker
//! contortions, so — like cranelift and rustc — we store entities in dense
//! arenas ([`PrimaryMap`]) and refer to them with small, copyable, *typed*
//! indices created by the [`entity_id!`](crate::entity_id) macro.

use std::fmt;
use std::hash::Hash;
use std::marker::PhantomData;

/// A typed index into a [`PrimaryMap`].
///
/// Implementors are tiny wrappers around `u32` produced by the
/// [`entity_id!`](crate::entity_id) macro. The trait is object-unsafe on
/// purpose; identifiers are always used as concrete types.
pub trait EntityId: Copy + Eq + Hash + fmt::Debug {
    /// Creates an identifier from a raw index.
    fn from_index(index: usize) -> Self;
    /// Returns the raw index.
    fn index(self) -> usize;
}

/// Declares a new entity identifier type.
///
/// The second argument is a short prefix used by the `Debug`/`Display`
/// impls, so `entity_id!(pub struct OpId, "op")` renders as `op12`.
///
/// # Examples
///
/// ```
/// use axi4mlir_support::entity_id;
/// use axi4mlir_support::entity::EntityId;
///
/// entity_id!(pub struct ThingId, "thing");
/// let id = ThingId::from_index(3);
/// assert_eq!(format!("{id}"), "thing3");
/// ```
#[macro_export]
macro_rules! entity_id {
    ($vis:vis struct $name:ident, $prefix:expr) => {
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        $vis struct $name(u32);

        impl $crate::entity::EntityId for $name {
            fn from_index(index: usize) -> Self {
                debug_assert!(index <= u32::MAX as usize, "entity index overflow");
                Self(index as u32)
            }
            fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl ::std::fmt::Debug for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

/// A dense map that owns its values and mints identifiers on insertion.
///
/// Unlike a `HashMap`, a `PrimaryMap` never removes entries; compilers
/// instead mark entities dead and rebuild. This keeps identifiers stable and
/// lookups branch-free.
///
/// # Examples
///
/// ```
/// use axi4mlir_support::entity::PrimaryMap;
/// use axi4mlir_support::entity_id;
///
/// entity_id!(struct K, "k");
/// let mut m: PrimaryMap<K, i32> = PrimaryMap::new();
/// let k0 = m.push(10);
/// let k1 = m.push(20);
/// assert_eq!(m[k0] + m[k1], 30);
/// assert_eq!(m.len(), 2);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct PrimaryMap<K: EntityId, V> {
    values: Vec<V>,
    _marker: PhantomData<K>,
}

impl<K: EntityId, V> PrimaryMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self { values: Vec::new(), _marker: PhantomData }
    }

    /// Inserts a value and returns its freshly minted identifier.
    pub fn push(&mut self, value: V) -> K {
        let key = K::from_index(self.values.len());
        self.values.push(value);
        key
    }

    /// Returns the number of entities.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if no entities have been inserted.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates over `(key, &value)` pairs in insertion order.
    fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.values.iter().enumerate().map(|(i, v)| (K::from_index(i), v))
    }

    /// Iterates over all values.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.values.iter()
    }
}

impl<K: EntityId, V> Default for PrimaryMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: EntityId, V> std::ops::Index<K> for PrimaryMap<K, V> {
    type Output = V;
    fn index(&self, key: K) -> &V {
        &self.values[key.index()]
    }
}

impl<K: EntityId, V> std::ops::IndexMut<K> for PrimaryMap<K, V> {
    fn index_mut(&mut self, key: K) -> &mut V {
        &mut self.values[key.index()]
    }
}

impl<K: EntityId, V: fmt::Debug> fmt::Debug for PrimaryMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter().map(|(k, v)| (format!("{k:?}"), v))).finish()
    }
}

impl<K: EntityId, V> FromIterator<V> for PrimaryMap<K, V> {
    fn from_iter<I: IntoIterator<Item = V>>(iter: I) -> Self {
        Self { values: iter.into_iter().collect(), _marker: PhantomData }
    }
}

impl<K: EntityId, V> Extend<V> for PrimaryMap<K, V> {
    fn extend<I: IntoIterator<Item = V>>(&mut self, iter: I) {
        self.values.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    entity_id!(struct TestId, "t");

    #[test]
    fn push_and_index() {
        let mut m: PrimaryMap<TestId, String> = PrimaryMap::new();
        let a = m.push("a".to_owned());
        let b = m.push("b".to_owned());
        assert_ne!(a, b);
        assert_eq!(m[a], "a");
        assert_eq!(m[b], "b");
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
    }

    #[test]
    fn iter_in_insertion_order() {
        let mut m: PrimaryMap<TestId, u32> = PrimaryMap::new();
        for i in 0..10 {
            m.push(i * 2);
        }
        let collected: Vec<(usize, u32)> = m.iter().map(|(k, v)| (k.index(), *v)).collect();
        assert_eq!(collected, (0..10).map(|i| (i as usize, i * 2)).collect::<Vec<_>>());
    }

    #[test]
    fn display_uses_prefix() {
        let id = TestId::from_index(42);
        assert_eq!(format!("{id}"), "t42");
        assert_eq!(format!("{id:?}"), "t42");
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut m: PrimaryMap<TestId, i32> = (0..3).collect();
        assert_eq!(m.len(), 3);
        m.extend(3..5);
        assert_eq!(m.len(), 5);
        assert_eq!(m[TestId::from_index(4)], 4);
    }
}
