//! The op registry: one [`OpKind`] per op a consumer matches, and the one
//! table that spells each.
//!
//! As in MLIR, an op's name is registered once and passes match on the
//! registered op: the parser looks a spelling up here, the printer and
//! every diagnostic spell a kind from here, and a misspelled kind does
//! not compile. A name the table does not hold parses to
//! [`OpKind::Unregistered`] and prints back byte for byte.

use std::fmt;

use crate::ops::Name;

macro_rules! registry {
    ($($variant:ident = $spelling:literal,)*) => {
        /// What an operation is: a registered op, or a name no dialect
        /// here registers.
        #[derive(Clone, Debug, PartialEq, Eq, Hash)]
        pub enum OpKind {
            $(#[doc = concat!("`", $spelling, "`")] $variant,)*
            /// A name the table does not hold (never a registered one:
            /// [`OpKind::parse`] maps those to their variant).
            Unregistered(Name),
        }

        impl OpKind {
            /// Every registered kind, in table order.
            pub const REGISTERED: &[OpKind] = &[$(OpKind::$variant),*];

            /// The op's fully qualified name, e.g. `scf.for`.
            pub fn name(&self) -> &str {
                match self {
                    $(OpKind::$variant => $spelling,)*
                    OpKind::Unregistered(name) => name,
                }
            }

            /// The kind `spelling` names; only an unregistered one copies it.
            pub fn parse(spelling: &str) -> OpKind {
                match spelling {
                    $($spelling => OpKind::$variant,)*
                    _ => OpKind::Unregistered(Name::Owned(spelling.to_owned())),
                }
            }
        }
    };
}

registry! {
    BuiltinModule = "builtin.module",
    FuncFunc = "func.func",
    FuncReturn = "func.return",
    FuncCall = "func.call",
    ScfFor = "scf.for",
    ScfYield = "scf.yield",
    ArithConstant = "arith.constant",
    ArithAddi = "arith.addi",
    ArithMuli = "arith.muli",
    ArithAddf = "arith.addf",
    ArithMulf = "arith.mulf",
    ArithIndexCast = "arith.index_cast",
    MemrefAlloc = "memref.alloc",
    MemrefAlloca = "memref.alloca",
    MemrefSubview = "memref.subview",
    MemrefLoad = "memref.load",
    MemrefStore = "memref.store",
    MemrefDim = "memref.dim",
    LinalgGeneric = "linalg.generic",
    LinalgYield = "linalg.yield",
    LinalgMatmul = "linalg.matmul",
    LinalgConv2dNchwFchw = "linalg.conv_2d_nchw_fchw",
    AccelDmaInit = "accel.dma_init",
    AccelSendLiteral = "accel.sendLiteral",
    AccelSend = "accel.send",
    AccelSendDim = "accel.sendDim",
    AccelSendIdx = "accel.sendIdx",
    AccelRecv = "accel.recv",
}

/// Dialect membership, read from the spelling: an unregistered
/// `arith.subi` is pure for liveness, an unknown `accel.foo` an accel op.
impl OpKind {
    fn in_dialect(&self, dialect: &str) -> bool {
        self.name().strip_prefix(dialect).is_some_and(|rest| rest.starts_with('.'))
    }

    /// Whether the op is in the `arith` dialect.
    pub(crate) fn is_arith(&self) -> bool {
        self.in_dialect("arith")
    }

    /// Whether the op is in the `linalg` dialect.
    pub fn is_linalg(&self) -> bool {
        self.in_dialect("linalg")
    }

    /// Whether the op is in the `accel` dialect.
    pub fn is_accel(&self) -> bool {
        self.in_dialect("accel")
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spellings_are_unique_and_parse_back() {
        let mut names: Vec<&str> = OpKind::REGISTERED.iter().map(OpKind::name).collect();
        for kind in OpKind::REGISTERED {
            assert_eq!(&OpKind::parse(kind.name()), kind);
            assert_eq!(kind.to_string(), kind.name());
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), OpKind::REGISTERED.len(), "a spelling is registered twice");
    }

    #[test]
    fn a_dialect_is_read_from_the_spelling() {
        assert!(OpKind::ArithAddi.is_arith() && !OpKind::ArithAddi.is_linalg());
        assert!(OpKind::LinalgYield.is_linalg());
        assert!(OpKind::AccelSendIdx.is_accel());
        // Unregistered names keep their dialect: a parsed `arith.subi` is
        // pure for liveness, and an unknown `accel.foo` is an accel op.
        assert!(OpKind::parse("arith.subi").is_arith());
        assert!(OpKind::parse("accel.foo").is_accel());
        assert!(!OpKind::parse("accelerate.foo").is_accel());
        assert!(!OpKind::parse("accel").is_accel());
    }
}
