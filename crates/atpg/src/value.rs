/// Three-valued logic: 0, 1 or unknown.
///
/// PODEM's circuit state is a *pair* of ternary values per line — the
/// good-machine and faulty-machine values — which encodes the classic
/// five-valued D-calculus (`D` = (1,0), `D̄` = (0,1)) plus the partially
/// assigned cases a pair encoding handles for free.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Ternary {
    /// Logic 0.
    Zero,
    /// Logic 1.
    One,
    /// Unassigned / unknown.
    X,
}

impl Ternary {
    /// Lift a boolean.
    pub fn from_bool(b: bool) -> Ternary {
        if b {
            Ternary::One
        } else {
            Ternary::Zero
        }
    }

    /// The boolean, if determined.
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Ternary::Zero => Some(false),
            Ternary::One => Some(true),
            Ternary::X => None,
        }
    }

    /// Whether the value is determined.
    pub fn is_binary(self) -> bool {
        self != Ternary::X
    }

    /// Three-valued complement.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Ternary {
        match self {
            Ternary::Zero => Ternary::One,
            Ternary::One => Ternary::Zero,
            Ternary::X => Ternary::X,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ternary_helpers() {
        assert_eq!(Ternary::from_bool(true), Ternary::One);
        assert_eq!(Ternary::One.not(), Ternary::Zero);
        assert_eq!(Ternary::X.not(), Ternary::X);
        assert!(Ternary::Zero.is_binary());
        assert!(!Ternary::X.is_binary());
        assert_eq!(Ternary::X.to_bool(), None);
    }
}
