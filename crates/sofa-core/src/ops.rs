//! Operation accounting with the arithmetic-complexity model.
//!
//! The paper normalises the cost of heterogeneous operations (multiplication,
//! exponentiation, comparison, shift, …) using the arithmetic complexity model
//! of Brent & Zimmermann so that "28 % lower computation complexity" is a
//! well-defined statement. Every algorithm in this crate threads an
//! [`OpCounts`] through its inner loops; the ablation experiments (paper
//! Fig. 17) are regenerated directly from these counters.

/// Kinds of primitive operations tracked by the complexity model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Fixed/floating point multiplication.
    Mul,
    /// Addition / subtraction.
    Add,
    /// Exponentiation (`exp`).
    Exp,
    /// Comparison (max/sort compare-exchange).
    Cmp,
    /// Bit shift (the DLZS substitute for multiplication).
    Shift,
    /// Division (final softmax normalisation).
    Div,
    /// Leading-zero encode of one operand.
    LzEncode,
}

impl OpKind {
    /// All operation kinds, in a stable order.
    pub const ALL: [OpKind; 7] = [
        OpKind::Mul,
        OpKind::Add,
        OpKind::Exp,
        OpKind::Cmp,
        OpKind::Shift,
        OpKind::Div,
        OpKind::LzEncode,
    ];

    /// Relative cost of one operation under the arithmetic-complexity model,
    /// normalised so a 16-bit addition costs 1.
    ///
    /// Multiplication of `n`-bit operands costs O(n²/16) additions in the
    /// schoolbook model; exponentiation is evaluated by a piecewise table +
    /// multiply (the paper's hardware uses a LUT-based unit) and costs several
    /// multiplications; shifts and comparisons cost about one addition;
    /// division costs roughly a multiplication plus iterations.
    pub(crate) fn weight(self) -> f64 {
        match self {
            OpKind::Mul => 16.0,
            OpKind::Add => 1.0,
            OpKind::Exp => 40.0,
            OpKind::Cmp => 1.0,
            OpKind::Shift => 0.5,
            OpKind::Div => 20.0,
            OpKind::LzEncode => 1.0,
        }
    }
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            OpKind::Mul => "mul",
            OpKind::Add => "add",
            OpKind::Exp => "exp",
            OpKind::Cmp => "cmp",
            OpKind::Shift => "shift",
            OpKind::Div => "div",
            OpKind::LzEncode => "lz-encode",
        };
        write!(f, "{s}")
    }
}

/// A tally of primitive operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounts {
    /// Multiplications.
    pub mul: u64,
    /// Additions / subtractions.
    pub add: u64,
    /// Exponentiations.
    pub exp: u64,
    /// Comparisons.
    pub cmp: u64,
    /// Shifts.
    pub shift: u64,
    /// Divisions.
    pub div: u64,
    /// Leading-zero encodes.
    pub lz_encode: u64,
}

impl OpCounts {
    /// An empty tally.
    pub fn new() -> Self {
        OpCounts::default()
    }

    /// Records `n` operations of the given kind.
    pub fn record(&mut self, kind: OpKind, n: u64) {
        match kind {
            OpKind::Mul => self.mul += n,
            OpKind::Add => self.add += n,
            OpKind::Exp => self.exp += n,
            OpKind::Cmp => self.cmp += n,
            OpKind::Shift => self.shift += n,
            OpKind::Div => self.div += n,
            OpKind::LzEncode => self.lz_encode += n,
        }
    }

    /// Returns the raw count of one kind.
    pub fn count(&self, kind: OpKind) -> u64 {
        match kind {
            OpKind::Mul => self.mul,
            OpKind::Add => self.add,
            OpKind::Exp => self.exp,
            OpKind::Cmp => self.cmp,
            OpKind::Shift => self.shift,
            OpKind::Div => self.div,
            OpKind::LzEncode => self.lz_encode,
        }
    }

    /// Total number of primitive operations regardless of kind.
    pub fn total_ops(&self) -> u64 {
        OpKind::ALL.iter().map(|&k| self.count(k)).sum()
    }

    /// Normalised complexity under the arithmetic-complexity model
    /// (weighted sum of counts).
    pub fn normalized_complexity(&self) -> f64 {
        OpKind::ALL
            .iter()
            .map(|&k| self.count(k) as f64 * k.weight())
            .sum()
    }

    /// Element-wise sum of two tallies.
    pub(crate) fn combine(&self, other: &OpCounts) -> OpCounts {
        let mut out = *self;
        for k in OpKind::ALL {
            out.record(k, other.count(k));
        }
        out
    }

    /// Adds this tally to `reg` as counters `{prefix}.{kind}` (snake_case,
    /// e.g. `core.ops.mul`, `core.ops.lz_encode`) plus `{prefix}.total` —
    /// the registry-facing view of the arithmetic-complexity accounting.
    pub fn record_metrics(&self, reg: &mut sofa_obs::MetricsRegistry, prefix: &str) {
        for k in OpKind::ALL {
            let name = match k {
                OpKind::Mul => "mul",
                OpKind::Add => "add",
                OpKind::Exp => "exp",
                OpKind::Cmp => "cmp",
                OpKind::Shift => "shift",
                OpKind::Div => "div",
                OpKind::LzEncode => "lz_encode",
            };
            reg.inc(&format!("{prefix}.{name}"), self.count(k));
        }
        reg.inc(&format!("{prefix}.total"), self.total_ops());
    }
}

impl std::ops::Add for OpCounts {
    type Output = OpCounts;
    fn add(self, rhs: OpCounts) -> OpCounts {
        self.combine(&rhs)
    }
}

impl std::ops::AddAssign for OpCounts {
    fn add_assign(&mut self, rhs: OpCounts) {
        *self = self.combine(&rhs);
    }
}

impl std::fmt::Display for OpCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mul={} add={} exp={} cmp={} shift={} div={} lze={} (norm={:.1})",
            self.mul,
            self.add,
            self.exp,
            self.cmp,
            self.shift,
            self.div,
            self.lz_encode,
            self.normalized_complexity()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_metrics_exports_every_kind() {
        let mut c = OpCounts::new();
        c.record(OpKind::Mul, 3);
        c.record(OpKind::LzEncode, 2);
        let mut reg = sofa_obs::MetricsRegistry::new();
        c.record_metrics(&mut reg, "core.ops");
        assert_eq!(reg.counter("core.ops.mul"), 3);
        assert_eq!(reg.counter("core.ops.lz_encode"), 2);
        assert_eq!(reg.counter("core.ops.add"), 0);
        assert_eq!(reg.counter("core.ops.total"), 5);
    }

    #[test]
    fn record_and_count_round_trip() {
        let mut c = OpCounts::new();
        for (i, k) in OpKind::ALL.iter().enumerate() {
            c.record(*k, (i + 1) as u64);
        }
        for (i, k) in OpKind::ALL.iter().enumerate() {
            assert_eq!(c.count(*k), (i + 1) as u64);
        }
        assert_eq!(c.total_ops(), (1..=7).sum::<u64>());
    }

    #[test]
    fn normalized_complexity_uses_weights() {
        let mut c = OpCounts::new();
        c.record(OpKind::Mul, 2);
        c.record(OpKind::Add, 3);
        assert!((c.normalized_complexity() - (2.0 * 16.0 + 3.0)).abs() < 1e-9);
    }

    #[test]
    fn shift_is_cheaper_than_mul() {
        assert!(OpKind::Shift.weight() < OpKind::Mul.weight());
        assert!(OpKind::Exp.weight() > OpKind::Mul.weight());
    }

    #[test]
    fn combine_add_scale() {
        let mut a = OpCounts::new();
        a.record(OpKind::Mul, 5);
        let mut b = OpCounts::new();
        b.record(OpKind::Mul, 7);
        b.record(OpKind::Exp, 1);
        let c = a + b;
        assert_eq!(c.mul, 12);
        assert_eq!(c.exp, 1);
        a += b;
        assert_eq!(a.mul, 12);
    }

    #[test]
    fn display_contains_all_kinds() {
        let mut c = OpCounts::new();
        c.record(OpKind::Div, 9);
        let s = c.to_string();
        assert!(s.contains("div=9"));
        assert!(s.contains("norm="));
        assert_eq!(OpKind::Div.to_string(), "div");
    }
}
