//! Comparison operators ⊕ ∈ {=, ≠, <, ≤, >, ≥} (paper §2.1).

use rock_data::{PredOp, Value};
use std::fmt;

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Evaluate under SQL null semantics: any comparison involving `Null`
    /// is false (even `Null != x`), matching how violations must not fire
    /// on missing data — MI rules handle nulls explicitly via `null(·)`.
    ///
    /// Delegates to the storage layer's [`PredOp::eval`]: the scalar row
    /// path and the vectorized columnar kernels must share one comparison
    /// implementation, or the row-store equivalence oracle could silently
    /// diverge.
    pub fn eval(self, a: &Value, b: &Value) -> bool {
        self.kernel().eval(a, b)
    }

    /// The storage-layer kernel operator this maps to.
    pub fn kernel(self) -> PredOp {
        match self {
            CmpOp::Eq => PredOp::Eq,
            CmpOp::Neq => PredOp::Neq,
            CmpOp::Lt => PredOp::Lt,
            CmpOp::Le => PredOp::Le,
            CmpOp::Gt => PredOp::Gt,
            CmpOp::Ge => PredOp::Ge,
        }
    }

    /// The negation (used to express violations `h ⊨ X ∧ ¬p0`).
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Neq,
            CmpOp::Neq => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// Parse from the DSL token.
    pub fn parse(s: &str) -> Option<CmpOp> {
        Some(match s {
            "=" | "==" => CmpOp::Eq,
            "!=" | "<>" => CmpOp::Neq,
            "<" => CmpOp::Lt,
            "<=" => CmpOp::Le,
            ">" => CmpOp::Gt,
            ">=" => CmpOp::Ge,
            _ => return None,
        })
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Neq => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_all_ops() {
        let a = Value::Int(1);
        let b = Value::Int(2);
        assert!(CmpOp::Lt.eval(&a, &b));
        assert!(CmpOp::Le.eval(&a, &b));
        assert!(CmpOp::Le.eval(&a, &a));
        assert!(CmpOp::Neq.eval(&a, &b));
        assert!(!CmpOp::Eq.eval(&a, &b));
        assert!(CmpOp::Gt.eval(&b, &a));
        assert!(CmpOp::Ge.eval(&b, &b));
    }

    #[test]
    fn null_never_satisfies() {
        for op in [
            CmpOp::Eq,
            CmpOp::Neq,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert!(!op.eval(&Value::Null, &Value::Int(1)), "{op}");
            assert!(!op.eval(&Value::Int(1), &Value::Null), "{op}");
            assert!(!op.eval(&Value::Null, &Value::Null), "{op}");
        }
    }

    #[test]
    fn negation_involution() {
        for op in [
            CmpOp::Eq,
            CmpOp::Neq,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.negate().negate(), op);
        }
    }

    #[test]
    fn negation_complementary_on_non_null() {
        let a = Value::Int(3);
        let b = Value::Int(7);
        for op in [
            CmpOp::Eq,
            CmpOp::Neq,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_ne!(op.eval(&a, &b), op.negate().eval(&a, &b));
        }
    }

    #[test]
    fn parse_display_roundtrip() {
        for s in ["=", "!=", "<", "<=", ">", ">="] {
            let op = CmpOp::parse(s).unwrap();
            assert_eq!(op.to_string(), s);
        }
        assert_eq!(CmpOp::parse("=="), Some(CmpOp::Eq));
        assert_eq!(CmpOp::parse("<>"), Some(CmpOp::Neq));
        assert_eq!(CmpOp::parse("~"), None);
    }
}
