//! Loop analysis: the flat-bytecode loop regions the fixpoint VM
//! iterates over.
//!
//! [`loop_regions`] recovers the contiguous `[header_pc, back_jump_pc]`
//! intervals from backward jumps in an emitted
//! [`Program`](crate::bytecode::Program). Because the front end only
//! produces structured `while`/`for` loops, regions are properly nested
//! intervals; [`loop_regions`] verifies this and reports any irreducible
//! shape instead of guessing.

use crate::bytecode::FixedInstr;

/// A contiguous loop region in flat bytecode: every pc in
/// `header..=back_jump` belongs to the loop, and `code[back_jump]` is a
/// backward jump targeting `header`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoopRegion {
    /// First pc of the loop (the backward jump's target).
    pub header: usize,
    /// Pc of the backward jump closing the loop.
    pub back_jump: usize,
}

impl LoopRegion {
    /// True when `pc` lies inside the region.
    #[inline]
    pub fn contains(&self, pc: usize) -> bool {
        (self.header..=self.back_jump).contains(&pc)
    }

    /// True when `other` is strictly inside `self`.
    #[inline]
    pub fn encloses(&self, other: &LoopRegion) -> bool {
        self.header <= other.header && other.back_jump <= self.back_jump && self != other
    }
}

/// The loop regions of one bytecode function, validated to nest properly.
#[derive(Clone, Debug, Default)]
pub struct LoopTable {
    /// Regions sorted by `(header, descending extent)`, so the first
    /// region found for a header is the outermost one with that header.
    pub regions: Vec<LoopRegion>,
}

impl LoopTable {
    /// The outermost region whose header is exactly `pc`, if any.
    pub fn region_with_header(&self, pc: usize) -> Option<LoopRegion> {
        self.regions.iter().find(|r| r.header == pc).copied()
    }

    /// True when the function contains any loop at all.
    #[inline]
    pub fn has_loops(&self) -> bool {
        !self.regions.is_empty()
    }
}

/// Recovers the loop regions of `code` from its backward jumps.
///
/// Regions sharing a header are merged to the widest extent (a loop with
/// several latches is one loop). Returns `Err` with a diagnostic if any
/// two regions partially overlap — the structured front end never emits
/// such code, so an overlap means the bytecode did not come from it and
/// the fixpoint engine must not run on it.
pub fn loop_regions(code: &[FixedInstr]) -> Result<LoopTable, String> {
    let mut regions: Vec<LoopRegion> = Vec::new();
    for (pc, instr) in code.iter().enumerate() {
        let Some(t) = instr.target() else { continue };
        if t > pc {
            continue;
        }
        match regions.iter_mut().find(|r| r.header == t) {
            Some(r) => r.back_jump = r.back_jump.max(pc),
            None => regions.push(LoopRegion {
                header: t,
                back_jump: pc,
            }),
        }
    }
    regions.sort_by(|a, b| a.header.cmp(&b.header).then(b.back_jump.cmp(&a.back_jump)));
    for (i, a) in regions.iter().enumerate() {
        for b in regions.iter().skip(i + 1) {
            let disjoint = a.back_jump < b.header || b.back_jump < a.header;
            let nested = a.encloses(b) || b.encloses(a);
            if !disjoint && !nested {
                return Err(format!(
                    "irreducible loop shape: regions [{}, {}] and [{}, {}] partially overlap",
                    a.header, a.back_jump, b.header, b.back_jump
                ));
            }
        }
    }
    Ok(LoopTable { regions })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::emit_program;
    use crate::cfg::lower_function;
    use crate::cfg::Cfg;
    use crate::tac::to_tac_with_sema;

    fn cfg_of(src: &str) -> Cfg {
        let unit = safegen_cfront::parse(src).unwrap();
        let sema = safegen_cfront::analyze(&unit).unwrap();
        let (tac, sema) = to_tac_with_sema(&unit, &sema);
        lower_function(&tac.functions[0], &sema).unwrap()
    }

    const WHILE_SRC: &str = "double f(double x, int n) {
        int t = n;
        while (t > 0) { x = 0.5 * x; t = t - 1; }
        return x;
    }";

    #[test]
    fn straight_line_has_no_loops() {
        let cfg = cfg_of("double f(double x) { return x * x; }");
        let prog = emit_program(&cfg).unwrap();
        let table = loop_regions(&prog.code).unwrap();
        assert!(!table.has_loops());
    }

    #[test]
    fn while_loop_found_in_bytecode() {
        let cfg = cfg_of(WHILE_SRC);
        let prog = emit_program(&cfg).unwrap();
        let table = loop_regions(&prog.code).unwrap();
        assert_eq!(table.regions.len(), 1, "regions: {:?}", table.regions);
        let r = table.regions[0];
        assert!(r.header < r.back_jump);
        assert!(table.region_with_header(r.header).is_some());
        assert!(table.region_with_header(r.header + 1).is_none());
    }

    #[test]
    fn nested_loops_nest_properly() {
        let cfg = cfg_of(
            "double f(double x, int n) {
                int i = n;
                while (i > 0) {
                    int j = n;
                    while (j > 0) { x = 0.5 * x + 1.0; j = j - 1; }
                    i = i - 1;
                }
                return x;
            }",
        );
        let prog = emit_program(&cfg).unwrap();
        let table = loop_regions(&prog.code).unwrap();
        assert_eq!(table.regions.len(), 2, "regions: {:?}", table.regions);
        let outer = table.regions[0];
        let inner = table.regions[1];
        assert!(outer.encloses(&inner), "{outer:?} should enclose {inner:?}");
    }
}
