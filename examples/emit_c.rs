//! Source-to-source transformation (the paper's Fig. 2): print the sound
//! C code SafeGen generates for a small input program, with and without
//! the static-analysis pragmas.
//!
//! Run with: `cargo run --release --example emit_c`

use safegen_suite::cfront::{self, emit_c, EmitPrecision};
use safegen_suite::ir;

fn main() {
    let src = r#"
double kernel(double a, double b, double z) {
    double c = a * b + 0.1;
    return c * z - b * z;
}
"#;
    println!("--- input ---------------------------------------------------");
    println!("{}", src.trim());

    let unit = cfront::parse(src).expect("parses");
    let unit = cfront::rename_unique(&unit);
    let sema = cfront::analyze(&unit).expect("type-checks");
    let tac = ir::to_tac(&unit, &sema);

    println!("\n--- three-address form (analysis input) ---------------------");
    print!("{}", cfront::print_unit(&tac));

    let annotated = safegen_suite::analysis::annotate_unit(&tac, 8).expect("analysis");
    println!("\n--- annotated (max-reuse priorities, k = 8) ------------------");
    print!("{}", cfront::print_unit(&annotated));

    let sema = cfront::analyze(&annotated).expect("still valid");
    println!("\n--- sound C output (f64a) ------------------------------------");
    print!("{}", emit_c(&annotated, &sema, EmitPrecision::F64));

    println!("\n--- sound C output (dda, double-double centers) ---------------");
    print!("{}", emit_c(&annotated, &sema, EmitPrecision::Dd));
}
