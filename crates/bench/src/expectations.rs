//! The paper's published numbers (Tables II and III) — the one copy the
//! artifact binaries and `tests/paper_counts_class_s.rs` check against.

/// One expected Table II row.
#[derive(Clone, Copy, Debug)]
pub struct Expected2 {
    /// `Benchmark(variable)` label as printed by the paper.
    pub label: &'static str,
    /// Benchmark name.
    pub bench: &'static str,
    /// Variable name.
    pub var: &'static str,
    /// Paper's uncritical element count.
    pub uncritical: usize,
    /// Paper's total element count.
    pub total: usize,
}

/// Table II as published. Note: the paper's `LU(rho_i)` and `LU(rsd)`
/// rows are swapped relative to the variables' sizes (`rho_i` has 2028
/// elements, `rsd` 10140); the entries below carry the size-consistent
/// assignment, which also matches the paper's own Table III arithmetic.
pub const TABLE2: &[Expected2] = &[
    Expected2 {
        label: "BT(u)",
        bench: "BT",
        var: "u",
        uncritical: 1_500,
        total: 10_140,
    },
    Expected2 {
        label: "SP(u)",
        bench: "SP",
        var: "u",
        uncritical: 1_500,
        total: 10_140,
    },
    Expected2 {
        label: "MG(u)",
        bench: "MG",
        var: "u",
        uncritical: 7_176,
        total: 46_480,
    },
    Expected2 {
        label: "MG(r)",
        bench: "MG",
        var: "r",
        uncritical: 10_543,
        total: 46_480,
    },
    Expected2 {
        label: "CG(x)",
        bench: "CG",
        var: "x",
        uncritical: 2,
        total: 1_402,
    },
    Expected2 {
        label: "LU(qs)",
        bench: "LU",
        var: "qs",
        uncritical: 300,
        total: 2_028,
    },
    Expected2 {
        label: "LU(rho_i)",
        bench: "LU",
        var: "rho_i",
        uncritical: 300,
        total: 2_028,
    },
    Expected2 {
        label: "LU(rsd)",
        bench: "LU",
        var: "rsd",
        uncritical: 1_500,
        total: 10_140,
    },
    Expected2 {
        label: "LU(u)",
        bench: "LU",
        var: "u",
        uncritical: 1_628,
        total: 10_140,
    },
    Expected2 {
        label: "FT(y)",
        bench: "FT",
        var: "y",
        uncritical: 4_096,
        total: 266_240,
    },
];

/// One expected Table III row (kb as printed by the paper).
#[derive(Clone, Copy, Debug)]
pub struct Expected3 {
    /// Benchmark name.
    pub bench: &'static str,
    /// Paper's "Original" storage.
    pub original_kb: f64,
    /// Paper's "Optimized" storage.
    pub optimized_kb: f64,
    /// Paper's "Storage saved" percentage.
    pub saved_pct: f64,
}

/// Table III as published.
pub const TABLE3: &[Expected3] = &[
    Expected3 {
        bench: "BT",
        original_kb: 79.4,
        optimized_kb: 67.7,
        saved_pct: 14.8,
    },
    Expected3 {
        bench: "SP",
        original_kb: 79.4,
        optimized_kb: 67.7,
        saved_pct: 14.8,
    },
    Expected3 {
        bench: "MG",
        original_kb: 727.0,
        optimized_kb: 588.0,
        saved_pct: 19.1,
    },
    Expected3 {
        bench: "CG",
        original_kb: 10.9,
        optimized_kb: 10.9,
        saved_pct: 0.1,
    },
    Expected3 {
        bench: "LU",
        original_kb: 191.0,
        optimized_kb: 161.0,
        saved_pct: 15.7,
    },
    Expected3 {
        bench: "FT",
        original_kb: 4161.0,
        optimized_kb: 4097.0,
        saved_pct: 1.0,
    },
];

/// Look up the Table II expectation for a benchmark/variable pair.
pub fn expected2(bench: &str, var: &str) -> Option<&'static Expected2> {
    TABLE2.iter().find(|e| e.bench == bench && e.var == var)
}

/// Look up the Table III expectation for a benchmark.
pub fn expected3(bench: &str) -> Option<&'static Expected3> {
    TABLE3.iter().find(|e| e.bench == bench)
}
