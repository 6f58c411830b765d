//! Affine expressions and maps.
//!
//! `linalg.generic` indexing maps and AXI4MLIR's `accel_dim` /
//! `permutation_map` attributes are affine maps. Unlike upstream MLIR
//! (which prints `d0, d1, ...`), the paper writes maps with *named*
//! dimensions — `affine_map<(m, n, k) -> (m, k)>` — so our maps remember
//! their dimension names for faithful printing, while evaluation is
//! positional.
//!
//! The parser keeps the affine productions (`expr`, `term`, `atom`) and
//! lexes through the workspace's shared
//! [`axi4mlir_support::text::Cursor`]: [`AffineMap::parse`] builds one
//! over a stand-alone string, and the `.mlir` parser passes its own so
//! `affine_map<…>` is read in place, with errors located in the
//! enclosing file. Parenthesized sub-expressions count against the
//! cursor's nesting guard.

use std::fmt;

use axi4mlir_support::diag::Diagnostic;
use axi4mlir_support::text::{Cursor, Skip};

/// An affine expression over dimensions and constants.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum AffineExpr {
    /// The `i`-th map dimension.
    Dim(usize),
    /// An integer constant.
    Const(i64),
    /// Sum of two expressions.
    Add(Box<AffineExpr>, Box<AffineExpr>),
    /// Product (at least one side must be constant to stay affine; the
    /// parser enforces this, the enum does not).
    Mul(Box<AffineExpr>, Box<AffineExpr>),
    /// Euclidean remainder.
    Mod(Box<AffineExpr>, Box<AffineExpr>),
    /// Floor division.
    FloorDiv(Box<AffineExpr>, Box<AffineExpr>),
}

impl AffineExpr {
    /// Evaluates with the given dimension values.
    ///
    /// # Panics
    ///
    /// Panics if a dimension index is out of range or on division by zero.
    fn eval(&self, dims: &[i64]) -> i64 {
        match self {
            AffineExpr::Dim(i) => dims[*i],
            AffineExpr::Const(c) => *c,
            AffineExpr::Add(a, b) => a.eval(dims) + b.eval(dims),
            AffineExpr::Mul(a, b) => a.eval(dims) * b.eval(dims),
            AffineExpr::Mod(a, b) => a.eval(dims).rem_euclid(b.eval(dims)),
            AffineExpr::FloorDiv(a, b) => a.eval(dims).div_euclid(b.eval(dims)),
        }
    }

    fn fmt_with(&self, f: &mut fmt::Formatter<'_>, names: &[String]) -> fmt::Result {
        match self {
            AffineExpr::Dim(i) => {
                if let Some(n) = names.get(*i) {
                    write!(f, "{n}")
                } else {
                    write!(f, "d{i}")
                }
            }
            AffineExpr::Const(c) => write!(f, "{c}"),
            AffineExpr::Add(a, b) => {
                a.fmt_with(f, names)?;
                write!(f, " + ")?;
                b.fmt_with(f, names)
            }
            AffineExpr::Mul(a, b) => {
                a.fmt_with(f, names)?;
                write!(f, " * ")?;
                b.fmt_with(f, names)
            }
            AffineExpr::Mod(a, b) => {
                a.fmt_with(f, names)?;
                write!(f, " mod ")?;
                b.fmt_with(f, names)
            }
            AffineExpr::FloorDiv(a, b) => {
                a.fmt_with(f, names)?;
                write!(f, " floordiv ")?;
                b.fmt_with(f, names)
            }
        }
    }
}

/// An affine map `(<dims>) -> (<exprs>)` with remembered dimension names.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct AffineMap {
    /// Names of the input dimensions (`m`, `n`, `k`, ... or `d0`, `d1`).
    pub dim_names: Vec<String>,
    /// Result expressions.
    pub results: Vec<AffineExpr>,
}

impl AffineMap {
    /// Builds a map from dimension names and results.
    pub fn new(dim_names: Vec<String>, results: Vec<AffineExpr>) -> Self {
        Self { dim_names, results }
    }

    /// A projection map selecting `dims` (by index) from `n` named inputs.
    pub fn projection(dim_names: Vec<String>, dims: &[usize]) -> Self {
        Self { results: dims.iter().map(|d| AffineExpr::Dim(*d)).collect(), dim_names }
    }

    /// Number of input dimensions.
    pub fn num_dims(&self) -> usize {
        self.dim_names.len()
    }

    /// Number of results.
    pub fn num_results(&self) -> usize {
        self.results.len()
    }

    /// Evaluates all results for the given dimension values.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() != num_dims()`.
    pub fn eval(&self, dims: &[i64]) -> Vec<i64> {
        assert_eq!(dims.len(), self.num_dims(), "dimension count mismatch");
        self.results.iter().map(|e| e.eval(dims)).collect()
    }

    /// If every result is a distinct bare dimension and the result count
    /// equals the dim count, returns the permutation `perm` such that
    /// `result[i] = dims[perm[i]]`.
    pub fn as_permutation(&self) -> Option<Vec<usize>> {
        if self.num_results() != self.num_dims() {
            return None;
        }
        let mut seen = vec![false; self.num_dims()];
        let mut perm = Vec::with_capacity(self.num_dims());
        for r in &self.results {
            match r {
                AffineExpr::Dim(i) if !seen[*i] => {
                    seen[*i] = true;
                    perm.push(*i);
                }
                _ => return None,
            }
        }
        Some(perm)
    }

    /// If every result is a bare dimension, returns those dimension indices
    /// (the common case for `linalg` indexing maps like `(m,n,k) -> (m,k)`).
    pub fn projected_dims(&self) -> Option<Vec<usize>> {
        self.results
            .iter()
            .map(|r| match r {
                AffineExpr::Dim(i) => Some(*i),
                _ => None,
            })
            .collect()
    }

    /// Parses the paper's named-dimension syntax:
    /// `(m, n, k) -> (m, k)` (without the `affine_map<...>` wrapper).
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] describing the first syntax error.
    pub fn parse(text: &str) -> Result<Self, Diagnostic> {
        let mut cur = Cursor::new(text, Skip::Unicode);
        let map = Self::parse_in(&mut cur)?;
        if !cur.at_end() {
            return Err(cur.error("trailing characters after affine map"));
        }
        Ok(map)
    }

    /// Parses one map at `cur`, leaving the cursor after its closing `)`
    /// — how the `.mlir` parser reads `affine_map<…>` in place.
    pub(crate) fn parse_in(cur: &mut Cursor<'_>) -> Result<Self, Diagnostic> {
        Parser { cur, dim_names: Vec::new() }.parse_map()
    }
}

impl fmt::Display for AffineMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, n) in self.dim_names.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}")?;
        }
        write!(f, ") -> (")?;
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            r.fmt_with(f, &self.dim_names)?;
        }
        write!(f, ")")
    }
}

/// The named-dim affine productions over a [`Cursor`] — the caller's
/// own when the map is embedded in a `.mlir` attribute.
struct Parser<'c, 'a> {
    cur: &'c mut Cursor<'a>,
    dim_names: Vec<&'a str>,
}

impl Parser<'_, '_> {
    fn parse_map(mut self) -> Result<AffineMap, Diagnostic> {
        self.cur.expect('(')?;
        if self.cur.peek() != Some(')') {
            loop {
                self.cur.skip_ws();
                let at = self.cur.pos();
                let name =
                    self.cur.ident().ok_or_else(|| self.cur.error("expected dimension name"))?;
                if self.dim_names.contains(&name) {
                    return Err(self.cur.error_at(at, format!("duplicate dimension `{name}`")));
                }
                self.dim_names.push(name);
                if !self.cur.eat(',') {
                    break;
                }
            }
        }
        self.cur.expect(')')?;
        if !self.cur.eat_str("->") {
            return Err(self.cur.error("expected `->`"));
        }
        self.cur.expect('(')?;
        let mut results = Vec::new();
        if self.cur.peek() != Some(')') {
            loop {
                results.push(self.expr()?);
                if !self.cur.eat(',') {
                    break;
                }
            }
        }
        self.cur.expect(')')?;
        let dim_names = self.dim_names.into_iter().map(str::to_owned).collect();
        Ok(AffineMap { dim_names, results })
    }

    /// expr := term ((`+`) term)*
    fn expr(&mut self) -> Result<AffineExpr, Diagnostic> {
        let mut lhs = self.term()?;
        while self.cur.eat('+') {
            let rhs = self.term()?;
            lhs = AffineExpr::Add(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    /// term := atom ((`*` | `mod` | `floordiv`) atom)*
    fn term(&mut self) -> Result<AffineExpr, Diagnostic> {
        let mut lhs = self.atom()?;
        loop {
            if self.cur.eat('*') {
                let rhs = self.atom()?;
                lhs = AffineExpr::Mul(Box::new(lhs), Box::new(rhs));
            } else if self.cur.eat_str("mod") {
                let rhs = self.atom()?;
                lhs = AffineExpr::Mod(Box::new(lhs), Box::new(rhs));
            } else if self.cur.eat_str("floordiv") {
                let rhs = self.atom()?;
                lhs = AffineExpr::FloorDiv(Box::new(lhs), Box::new(rhs));
            } else {
                break;
            }
        }
        Ok(lhs)
    }

    fn atom(&mut self) -> Result<AffineExpr, Diagnostic> {
        if self.cur.eat('(') {
            self.cur.enter()?;
            let e = self.expr()?;
            self.cur.leave();
            self.cur.expect(')')?;
            return Ok(e);
        }
        if let Some(n) = self.cur.decimal()? {
            return Ok(AffineExpr::Const(n));
        }
        let at = self.cur.pos();
        if let Some(id) = self.cur.ident() {
            // Named dims must be declared in the map's dimension list.
            if let Some(i) = self.dim_names.iter().position(|d| *d == id) {
                return Ok(AffineExpr::Dim(i));
            }
            return Err(self.cur.error_at(at, format!("unknown dimension `{id}`")));
        }
        Err(self.cur.error("expected expression"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_matmul_indexing_map() {
        let m = AffineMap::parse("(m, n, k) -> (m, k)").unwrap();
        assert_eq!(m.num_dims(), 3);
        assert_eq!(m.num_results(), 2);
        assert_eq!(m.eval(&[10, 20, 30]), vec![10, 30]);
        assert_eq!(m.projected_dims(), Some(vec![0, 2]));
    }

    #[test]
    fn parse_permutation() {
        let m = AffineMap::parse("(m, n, k) -> (m, k, n)").unwrap();
        assert_eq!(m.as_permutation(), Some(vec![0, 2, 1]));
        assert_eq!(m.to_string(), "(m, n, k) -> (m, k, n)");
    }

    #[test]
    fn parse_constants_and_arithmetic() {
        let m = AffineMap::parse("(B,H,W) -> (0, H + 1, W * 2)").unwrap();
        assert_eq!(m.eval(&[9, 10, 11]), vec![0, 11, 22]);
        assert!(m.as_permutation().is_none());
        assert!(m.projected_dims().is_none());
    }

    #[test]
    fn parse_accel_dim_style_constants() {
        // Fig. 15a: (B,H,W,iC,oC,fH,fW) -> (0,0,0,256,1,3,3)
        let m = AffineMap::parse("(B,H,W,iC,oC,fH,fW) -> (0,0,0,256,1,3,3)").unwrap();
        assert_eq!(m.eval(&[1, 2, 3, 4, 5, 6, 7]), vec![0, 0, 0, 256, 1, 3, 3]);
    }

    #[test]
    fn parse_mod_and_floordiv() {
        let m = AffineMap::parse("(i) -> (i mod 4, i floordiv 4)").unwrap();
        assert_eq!(m.eval(&[10]), vec![2, 2]);
        assert_eq!(m.eval(&[-1]), vec![3, -1], "Euclidean semantics");
    }

    #[test]
    fn parse_errors() {
        assert!(AffineMap::parse("(m, m) -> (m)").is_err(), "duplicate dim");
        assert!(AffineMap::parse("(m) -> (q)").is_err(), "unknown dim");
        assert!(AffineMap::parse("(m) (m)").is_err(), "missing arrow");
        assert!(AffineMap::parse("(m) -> (m) extra").is_err(), "trailing");
        let err = AffineMap::parse("(m) -> (q)").unwrap_err();
        assert!(err.message.contains("unknown dimension"));
    }

    #[test]
    fn roundtrip_display_parse() {
        for text in [
            "(m, n, k) -> (m, k)",
            "(m, n, k) -> (k, n)",
            "(m, n, k) -> (m, n)",
            "(a, b) -> (a + 1, b * 2)",
            "(x) -> (x mod 8)",
        ] {
            let m = AffineMap::parse(text).unwrap();
            let printed = m.to_string();
            let reparsed = AffineMap::parse(&printed).unwrap();
            assert_eq!(m, reparsed, "{text} -> {printed}");
        }
    }

    #[test]
    fn identity_and_projection_constructors() {
        let pr = AffineMap::projection(vec!["m".into(), "n".into(), "k".into()], &[2, 1]);
        assert_eq!(pr.eval(&[1, 2, 3]), vec![3, 2]);
    }
}
