//! Affine registers reuse their own storage: once a register has been
//! written, writing it again allocates nothing, and an interpreted loop
//! allocates the same at every trip count.
//!
//! A counting global allocator tallies the allocations of the calling
//! thread only, so other test threads cannot disturb the counts.

use safegen::domain::{Domain, FpBinOp, FpUnOp};
use safegen::OpCode;
use safegen_affine::{AaConfig, AaContext, Affine, CenterValue, Dd, Protect};
use safegen_api::diag::{encode, run_lanes_on, run_on, Compiler};
use safegen_api::{ArgValue, LoopMode, RunConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn tally() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`; the
// thread-local counter touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: the caller's `alloc` contract is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: the caller's `alloc_zeroed` contract is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        // SAFETY: the caller's `realloc` contract is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's `dealloc` contract is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations made by this thread while `f` runs.
fn allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Every in-place operation on written registers under one direct-mapped
/// configuration.
fn in_place_ops_allocate_nothing<C: CenterValue>(mnemonic: &str, k: usize)
where
    Affine<C>: Domain<Ctx = AaContext>,
{
    let (config, prioritized) = AaConfig::parse_mnemonic(k, mnemonic).unwrap();
    let cx = AaContext::new(config);
    // Two positive operands with shared history, saturated to k symbols.
    let mut a = Affine::<C>::from_input(0.7, &cx);
    let mut b = Affine::<C>::from_input(1.3, &cx);
    for i in 0..2 * k + 4 {
        let x = Affine::<C>::from_input(1e-3 * (i + 1) as f64, &cx);
        a = a.add(&x, &cx, Protect::None);
        b = b.mul(&x, &cx, Protect::None).add(&b, &cx, Protect::None);
    }
    let mut protect = Vec::new();
    if prioritized {
        a.protect_ids_into(k / 2, &mut protect);
    }
    let neg_a = a.neg();
    let mut out = <Affine<C> as Domain>::constant(0.0, &cx);
    let at = |what: &str| format!("{what} under {mnemonic} k={k} ({})", C::NAME);

    // `(a, a)` overlaps itself, so min/max also take their hull path.
    for (x, y) in [(&a, &b), (&b, &a), (&a, &a)] {
        for op in [
            FpBinOp::Add,
            FpBinOp::Sub,
            FpBinOp::Mul,
            FpBinOp::Div,
            FpBinOp::Min,
            FpBinOp::Max,
        ] {
            Domain::bin_into(op, x, y, &cx, &protect, &mut out);
            let n = allocs(|| Domain::bin_into(op, x, y, &cx, &protect, &mut out));
            assert_eq!(n, 0, "{}", at(&format!("{op:?}")));
        }
    }
    // `-a` takes abs's negation branch, `a` its identity branch.
    for x in [&a, &neg_a] {
        for op in [FpUnOp::Sqrt, FpUnOp::Abs, FpUnOp::Neg] {
            Domain::un_into(op, x, &cx, &protect, &mut out);
            let n = allocs(|| Domain::un_into(op, x, &cx, &protect, &mut out));
            assert_eq!(n, 0, "{}", at(&format!("{op:?}")));
        }
    }
    for c in [3.0, 0.1] {
        <Affine<C> as Domain>::constant_into(c, &cx, &mut out);
        let n = allocs(|| <Affine<C> as Domain>::constant_into(c, &cx, &mut out));
        assert_eq!(n, 0, "{}", at(&format!("constant {c}")));
    }
    out.clone_from(&b);
    let n = allocs(|| out.clone_from(&a));
    assert_eq!(n, 0, "{}", at("clone_from"));
}

/// A loop whose body adds, subtracts, multiplies, divides, takes a square
/// root, negates, and uses a non-integer constant.
const KERNEL: &str = "void kernel(double x, double y, int n, double out[1]) {
    double s = x;
    for (int i = 0; i < n; i++) {
        double t = s * y + 0.1;
        double u = t - x;
        double v = u / (y + 2.0);
        s = -sqrt(v * v + 0.5);
    }
    out[0] = s;
}";

fn kernel_args(x: f64, n: i64) -> Vec<ArgValue> {
    vec![
        ArgValue::Float(x),
        ArgValue::Float(0.9),
        ArgValue::Int(n),
        ArgValue::Array(vec![0.0]),
    ]
}

fn interpreted_loops_allocate_per_run_only() {
    let config = RunConfig::affine_f64(8);
    let compiled = Compiler::new().compile(KERNEL).unwrap();
    let prog = compiled.program_for("kernel", &config);
    let fixed = encode(&prog).unwrap();
    use OpCode::*;
    for op in [Add, Sub, Mul, Div, Sqrt, Neg, ConstF] {
        assert!(
            prog.code.iter().any(|i| i.op == op),
            "kernel lost its {op:?}:\n{prog}"
        );
    }

    let scalar = |n: i64| {
        allocs(|| {
            run_on(&prog, &kernel_args(0.3, n), &config).unwrap();
        })
    };
    let lanes = |n: i64| {
        let inputs: Vec<Vec<ArgValue>> = (0..4)
            .map(|l| kernel_args(0.3 + 0.1 * l as f64, n))
            .collect();
        allocs(|| {
            for r in run_lanes_on(&prog, &fixed, &inputs, &config) {
                r.unwrap();
            }
        })
    };
    // First runs initialize process-wide state (metrics, settings).
    scalar(1);
    lanes(1);
    let n = 25;
    assert_eq!(scalar(n), scalar(4 * n), "run_on allocates per trip");
    assert_eq!(lanes(n), lanes(4 * n), "run_lanes_on allocates per trip");
}

#[test]
fn affine_registers_reuse_their_storage() {
    for mnemonic in ["dsnv", "dspv"] {
        for k in [8, 40] {
            in_place_ops_allocate_nothing::<f64>(mnemonic, k);
            in_place_ops_allocate_nothing::<Dd>(mnemonic, k);
        }
    }
    interpreted_loops_allocate_per_run_only();
}

/// A loop that swaps two registers each trip, so its body keeps a `MovF`
/// through copy propagation.
const SWAP_KERNEL: &str = "double swap(double x, double y, int n) {
    for (int i = 0; i < n; i++) {
        double t = x;
        x = y;
        y = t * 0.5 + 0.25;
    }
    return x + y;
}";

/// The fixpoint engine's concrete attempt (`LoopMode::Auto` runs every
/// loop within its attempt budget concretely) allocates per run only.
#[test]
fn fixpoint_attempt_allocates_per_run_only() {
    let config = RunConfig::affine_f64(8).with_loop_mode(LoopMode::Auto);
    let compiled = Compiler::new().compile(SWAP_KERNEL).unwrap();
    let prog = compiled.program_for("swap", &config);
    assert!(
        prog.code.iter().any(|i| i.op == OpCode::MovF),
        "kernel lost its MovF:\n{prog}"
    );

    let run = |n: i64| {
        let args = [ArgValue::Float(0.3), ArgValue::Float(0.9), ArgValue::Int(n)];
        allocs(|| {
            let r = run_on(&prog, &args, &config).unwrap();
            assert_eq!(r.stats.fixpoint_loops, 0, "the attempt must run the loop");
        })
    };
    run(1);
    let n = 25;
    assert_eq!(
        run(n),
        run(4 * n),
        "the fixpoint attempt allocates per trip"
    );
}
