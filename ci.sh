#!/usr/bin/env bash
# Local CI gate: build, test, format, lint — entirely offline.
#
# The workspace has no registry dependencies (rand/proptest resolve to
# the vendored shims in vendor/), so every step below works
# without network access. Run from the repository root: ./ci.sh

set -euo pipefail
cd "$(dirname "$0")"

SAFEGEN=./target/release/safegen
JSON_CHECK=./target/release/json_check

# Every CLI smoke gate calls this first: a stale target/release binary
# must never validate an old build. When nothing changed since the last
# call, cargo makes this a cheap no-op, so the repeated calls cost
# almost nothing — but a smoke section that is run in isolation (or
# after an edit mid-script) still exercises the current sources.
build_release() {
    cargo build --release --workspace --quiet
}

echo "== cargo build --release =="
cargo build --release --workspace

echo "== FMA region call audit (direct-mapped ops call no libm fma and no inlined helper) =="
# Each direct-mapped add/sub/mul/div runs in one function compiled for
# AVX2 and FMA (safegen_affine::ops::direct_in_fma_region, one instance
# per center type). It may call the AVX2 slot kernels, the scalar tail
# bodies and cold allocation and panic paths, nothing else: a libm `fma`
# call or a call to one of the helpers below means the straight-line op
# came apart. Calls through the GOT (`call *slot(%rip)`, or a register
# loaded from a slot) are resolved with the dynamic relocations.
audit_fma_region() {
    local bin="$1" dir
    dir="$(mktemp -d)"
    nm -C "$bin" | awk '{ a = $1; sub(/^0+/, "", a); $1 = $2 = ""; sub(/^ +/, ""); print a "\t" $0 }' \
        > "$dir/syms"
    objdump -R "$bin" | awk '$2 ~ /^R_X86_64_/ {
        a = $1; sub(/^0+/, "", a); t = $3
        if ($2 == "R_X86_64_RELATIVE") { sub(/^\*ABS\*\+0x0*/, "", t); print a "\taddr\t" t }
        else { sub(/@.*/, "", t); print a "\tname\t" t }
    }' > "$dir/got"
    objdump -d --no-show-raw-insn "$bin" | awk '
        /^[0-9a-f]+ <.*>:$/ { inreg = ($2 ~ /direct_in_fma_region/); if (inreg) n++; next }
        inreg && /\tmov +-?0x[0-9a-f]+\(%rip\),%r[a-z0-9]+ +#/ {
            match($0, /%r[a-z0-9]+ +#/); r = substr($0, RSTART, RLENGTH); sub(/ +#/, "", r)
            match($0, /# [0-9a-f]+/); loaded[r] = substr($0, RSTART + 2, RLENGTH - 2)
        }
        inreg && /\tcall / {
            if ($0 ~ /call +\*%r/) {
                match($0, /%r[a-z0-9]+/); r = substr($0, RSTART, RLENGTH)
                print n "\tgot\t" ((r in loaded) ? loaded[r] : "?" r)
            } else if ($0 ~ /call +\*/) {
                match($0, /# [0-9a-f]+/); print n "\tgot\t" substr($0, RSTART + 2, RLENGTH - 2)
            } else {
                match($0, /call +[0-9a-f]+/); a = substr($0, RSTART, RLENGTH); sub(/call +/, "", a)
                print n "\taddr\t" a
            }
        }' > "$dir/calls"
    local status=0
    awk -F'\t' -v syms="$dir/syms" -v got="$dir/got" '
        BEGIN {
            while ((getline l < syms) > 0) { split(l, f, "\t"); if (!(f[1] in name)) name[f[1]] = f[2] }
            while ((getline l < got) > 0) { split(l, f, "\t"); kind[f[1]] = f[2]; val[f[1]] = f[3] }
        }
        function sym(a) { sub(/^0+/, "", a); return (a in name) ? name[a] : "unresolved 0x" a }
        {
            if ($2 == "addr") t = sym($3)
            else { s = $3; sub(/^0+/, "", s); t = !(s in kind) ? "unresolved GOT 0x" s : kind[s] == "addr" ? sym(val[s]) : val[s] }
            calls[$1 "\t" t]++; instances[$1] = 1
        }
        END {
            bad = 0
            for (c in calls) {
                split(c, f, "\t"); t = f[2]
                flag = (t ~ /^fmaf?(@|$)/ || t ~ /^unresolved/ ||
                    t ~ /Repr::(slots|slots_mut|ensure_direct|push_fresh)$/ ||
                    t ~ /::finalize(_direct)?$/ || t ~ /Ptrs::of$/ || t ~ /RoundOff::/ ||
                    t ~ /direct::(protect_masks|occupant|place_fresh|quadratic|merge_linear|merge_mul|run_chunks)($|::)/)
                printf "   instance %s: %3d x %s%s\n", f[1], calls[c], t, flag ? "   <-- must not be called here" : ""
                bad += flag
            }
            n = length(instances)
            if (n == 0) { print "   no direct_in_fma_region instance found"; exit 1 }
            exit (bad > 0)
        }' "$dir/calls" | sort || status=$?
    rm -rf "$dir"
    return "$status"
}
if [ "$(uname -m)" = x86_64 ]; then
    for tool in nm objdump; do
        command -v "$tool" > /dev/null || { echo "the FMA region audit requires $tool"; exit 1; }
    done
    audit_fma_region ./target/release/safegen
else
    echo "   (not x86_64: the FMA region is not built)"
fi

echo "== IGen-dd column kernels vectorize (packed ymm arithmetic in add/sub) =="
# The double-double ladder under IntervalDd's + and - is straight-line
# so that the lane engine's column loops vectorize inside their AVX2/FMA
# region. An early return or a call creeping back into Dd::add or
# Dd::err_bound turns those loops scalar again: no packed ymm add, sub,
# mul or fma is left in them.
audit_dd_vectorized() {
    objdump -d --no-show-raw-insn -C "$1" | awk '
        /^[0-9a-f]+ <.*>:$/ {
            f = ""
            if (index($0, "::cols::fast_bin_dd::add_cols_dd>:")) f = "add_cols_dd"
            if (index($0, "::cols::fast_bin_dd::sub_cols_dd>:")) f = "sub_cols_dd"
            if (f != "") n[f] += 0
            next
        }
        f != "" && /\tv(add|sub|mul|fn?m(add|sub)[0-9]+)pd .*%ymm/ { n[f]++ }
        END {
            bad = 0
            split("add_cols_dd sub_cols_dd", want, " ")
            for (i in want) {
                k = want[i]
                if (!(k in n)) { printf "   fast_bin_dd::%s: not found\n", k; bad = 1; continue }
                printf "   fast_bin_dd::%s: %d packed ymm arithmetic instructions%s\n", k, n[k], n[k] ? "" : "   <-- scalar loop"
                if (n[k] == 0) bad = 1
            }
            exit bad
        }'
}
if [ "$(uname -m)" = x86_64 ]; then
    audit_dd_vectorized ./target/release/safegen
else
    echo "   (not x86_64: the AVX2 column kernels are not built)"
fi

echo "== benchmark package builds (its own workspace, against the library API) =="
cargo build --release --offline --manifest-path crates/bench/src/bin/perf/Cargo.toml

echo "== benchmark package tests (its workloads fail here, not in a benchmark run) =="
cargo test --release --offline --manifest-path crates/bench/src/bin/perf/Cargo.toml

echo "== cargo test =="
cargo test -q --workspace

echo "== optimized kernel tests (the AVX2 body and the FMA region as shipped) =="
# The direct-mapped op body runs inside a function compiled for AVX2 and
# FMA, the AVX2 slot body is explicit intrinsics, and the interval column
# kernels vectorize to AVX2/FMA: all only take their shipped form in
# optimized builds, so their bit-identity tests run there too.
cargo test -q --release -p safegen-fpcore -p safegen-affine -p safegen-interval

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== golden IR snapshots (optimized CFG dumps must not drift) =="
cargo test -q --test ir_golden

echo "== observability smoke (profile + metrics JSON) =="
build_release
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
cat > "$SMOKE_DIR/kernel.c" <<'EOF'
double poly(double x) {
    double r = 1.0;
    for (int i = 0; i < 10; i++) {
        r = r * x - 0.3;
    }
    return r;
}
EOF
SAFEGEN_METRICS_OUT="$SMOKE_DIR/metrics" \
    "$SAFEGEN" profile "$SMOKE_DIR/kernel.c" poly --k 4 \
    | grep -q "error-attribution profile"
"$JSON_CHECK" "$SMOKE_DIR/metrics.jsonl" "$SMOKE_DIR/metrics.summary.json"

echo "== CLI strictness smoke (unknown flags and verbs exit 2, with listing) =="
build_release
check_rejects() {
    # $1: label; remaining args: the bad invocation.
    local label="$1"
    shift
    local status=0
    "$@" > "$SMOKE_DIR/reject.txt" 2>&1 || status=$?
    if [ "$status" -ne 2 ]; then
        echo "$label: expected exit 2, got $status"
        cat "$SMOKE_DIR/reject.txt"
        exit 1
    fi
    grep -q "valid" "$SMOKE_DIR/reject.txt" || {
        echo "$label: rejection must list the valid alternatives"
        cat "$SMOKE_DIR/reject.txt"
        exit 1
    }
}
check_rejects "unknown verb" "$SAFEGEN" frobnicate
check_rejects "unknown flag" "$SAFEGEN" run "$SMOKE_DIR/kernel.c" \
    --fn poly --config unsound --arg 0.3 --bogus
check_rejects "misspelled flag" "$SAFEGEN" profile "$SMOKE_DIR/kernel.c" poly --kk 4

echo "== differential fuzz smoke (incl. pass-differential; must be clean) =="
build_release
SAFEGEN_METRICS_OUT="$SMOKE_DIR/fuzz" \
    "$SAFEGEN" fuzz --iters 2000 --seed 0xC60 --out "$SMOKE_DIR/fuzzout" \
    | grep -q " 0 counterexamples"
"$JSON_CHECK" "$SMOKE_DIR/fuzz.jsonl" "$SMOKE_DIR/fuzz.summary.json"

echo "== pass pipeline smoke (optimized and unoptimized agree) =="
build_release
"$SAFEGEN" ir "$SMOKE_DIR/kernel.c" | grep -q "^cfg poly"
# Unsound (concrete f64) results must be bit-identical across pipelines;
# sound enclosures may differ in width (CSE legitimately merges noise
# symbols) and are cross-checked by the fuzz pass-differential above.
SAFEGEN_PASSES=none "$SAFEGEN" run "$SMOKE_DIR/kernel.c" \
    --fn poly --config unsound --arg 0.3 > "$SMOKE_DIR/run_unopt.txt"
SAFEGEN_PASSES=default "$SAFEGEN" run "$SMOKE_DIR/kernel.c" \
    --fn poly --config unsound --arg 0.3 > "$SMOKE_DIR/run_opt.txt"
diff "$SMOKE_DIR/run_unopt.txt" "$SMOKE_DIR/run_opt.txt"
# The stencil corpus program adds arrays and nested loops, whose index
# arithmetic CSE shares across blocks and hoists out of the loops.
for p in none default; do
    SAFEGEN_PASSES=$p "$SAFEGEN" run tests/corpus/stencil_index.c \
        --fn stencil --config unsound --arg 0.1 --arg 0.7 > "$SMOKE_DIR/stencil_$p.txt"
done
diff "$SMOKE_DIR/stencil_none.txt" "$SMOKE_DIR/stencil_default.txt"

echo "== docs gate (rustdoc warning-free + doc-tests) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet
cargo test -q --doc --workspace

echo "== embedding gate (facade builds without the os feature) =="
# The facade and everything under it must compile with the default `os`
# feature off — that is the wasm32 seam. The real cross-build runs when
# the target is installed; the host check below is unconditional and
# catches feature-gate regressions either way.
cargo check -q -p safegen-api --no-default-features
if rustup target list --installed 2>/dev/null | grep -qx wasm32-unknown-unknown; then
    cargo build -q --target wasm32-unknown-unknown -p safegen-api --no-default-features
else
    echo "   (wasm32-unknown-unknown not installed; host --no-default-features check only)"
fi
# Drift guard for environments without the wasm target: OS-only std
# surfaces must stay inside the cfg(feature = "os") serve module.
if grep -rn "std::os" crates/api/src crates/core/src crates/telemetry/src \
    crates/artifact/src crates/affine/src crates/interval/src \
    crates/ir/src crates/cfront/src --include="*.rs" \
    | grep -v "^crates/api/src/serve.rs"; then
    echo "std::os used outside the os-gated serve module"
    exit 1
fi

echo "== C ABI gate (header drift + FFI round-trip + demo embedder) =="
build_release
cargo test -q -p safegen-capi
if command -v cc > /dev/null; then
    cc -Icrates/capi/include crates/capi/examples/embed/demo.c \
        -Ltarget/release -lsafegen_capi -o "$SMOKE_DIR/sg_demo"
    LD_LIBRARY_PATH=target/release "$SMOKE_DIR/sg_demo" > "$SMOKE_DIR/demo.txt"
    grep -q "demo: ok" "$SMOKE_DIR/demo.txt"
else
    echo "no C compiler found; the demo embedder gate requires cc"
    exit 1
fi

echo "== emitted-C syntax gate (safegen emit output vs runtime prototypes) =="
# The test renders prototypes from the runtime table and runs
# `cc -fsyntax-only` on every corpus program and kernel, at every
# precision, with and without the analysis; it says so if it skips.
command -v cc > /dev/null || { echo "no C compiler found; the syntax gate requires cc"; exit 1; }
cargo test -q --test emit_syntax

echo "== artifact round-trip gate (.sga spec + bit-identical replay) =="
build_release
cargo test -q --test artifact_spec --test artifact_roundtrip
SAFEGEN_CACHE_DIR="$SMOKE_DIR/cache" \
    "$SAFEGEN" compile "$SMOKE_DIR/kernel.c" \
    -o "$SMOKE_DIR/kernel.sga" --k 4
"$SAFEGEN" run "$SMOKE_DIR/kernel.sga" \
    --fn poly --config dspv --k 4 --arg 0.3 > "$SMOKE_DIR/run_sga.txt"
"$SAFEGEN" run "$SMOKE_DIR/kernel.c" \
    --fn poly --config dspv --k 4 --arg 0.3 > "$SMOKE_DIR/run_src.txt"
diff "$SMOKE_DIR/run_sga.txt" "$SMOKE_DIR/run_src.txt"
# The second compile must come from the content-addressed cache.
SAFEGEN_CACHE_DIR="$SMOKE_DIR/cache" \
    "$SAFEGEN" compile "$SMOKE_DIR/kernel.c" \
    -o "$SMOKE_DIR/kernel2.sga" --k 4 2>&1 | grep -q "cache"
cmp "$SMOKE_DIR/kernel.sga" "$SMOKE_DIR/kernel2.sga"

echo "== serve smoke (daemon + socket requests + clean shutdown) =="
build_release
SAFEGEN_METRICS_OUT="$SMOKE_DIR/serve" \
    "$SAFEGEN" serve "$SMOKE_DIR/kernel.sga" \
    --socket "$SMOKE_DIR/sg.sock" &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -S "$SMOKE_DIR/sg.sock" ] && break; sleep 0.1; done
"$SAFEGEN" request --socket "$SMOKE_DIR/sg.sock" \
    '{"op":"ping"}' | grep -q '"ok":true'
"$SAFEGEN" request --socket "$SMOKE_DIR/sg.sock" \
    '{"op":"eval","func":"poly","config":"dspv","k":4,"args":[0.3]}' \
    | grep -q '"acc_bits"'
"$SAFEGEN" request --socket "$SMOKE_DIR/sg.sock" \
    '{"op":"shutdown"}' | grep -q '"bye":true'
wait "$SERVE_PID"
test ! -e "$SMOKE_DIR/sg.sock"
"$JSON_CHECK" "$SMOKE_DIR/serve.jsonl" "$SMOKE_DIR/serve.summary.json"
# Request tracing: the eval's summary event and the spans recorded while
# handling it carry the same request id.
grep -q '"kind":"serve.request"' "$SMOKE_DIR/serve.jsonl"
grep '"kind":"span"' "$SMOKE_DIR/serve.jsonl" | grep -q '"req":'

echo "== stats smoke (live daemon metrics snapshot + assertions) =="
build_release
"$SAFEGEN" serve "$SMOKE_DIR/kernel.sga" \
    --socket "$SMOKE_DIR/stats.sock" &
STATS_PID=$!
for _ in $(seq 1 100); do [ -S "$SMOKE_DIR/stats.sock" ] && break; sleep 0.1; done
N_REQUESTS=5
for i in $(seq 1 "$N_REQUESTS"); do
    "$SAFEGEN" request --socket "$SMOKE_DIR/stats.sock" \
        '{"op":"eval","func":"poly","config":"dspv","k":4,"args":[0.3]}' \
        | grep -q '"ok":true'
done
# The snapshot is strict JSON, versioned, and its counters must account
# for exactly the eval requests made above with a positive latency p50.
"$SAFEGEN" stats --socket "$SMOKE_DIR/stats.sock" \
    --assert-requests "$N_REQUESTS" > "$SMOKE_DIR/stats.json"
"$JSON_CHECK" "$SMOKE_DIR/stats.json"
grep -q '"version":"safegen.metrics/1"' "$SMOKE_DIR/stats.json"
# The Prometheus rendering of the same snapshot is non-empty and typed.
"$SAFEGEN" stats --socket "$SMOKE_DIR/stats.sock" --prom \
    | grep -q '^# TYPE safegen_serve_requests_total counter'
"$SAFEGEN" request --socket "$SMOKE_DIR/stats.sock" \
    '{"op":"shutdown"}' | grep -q '"bye":true'
wait "$STATS_PID"

echo "== fixpoint gate (sound unbounded loops) =="
build_release
cargo test -q --test fixpoint_golden
cat > "$SMOKE_DIR/loop.c" <<'EOF'
double f(double x, int n) {
    double acc = x;
    int t = 0;
    while (t < n) {
        acc = 0.9 * acc + 1.0;
        t = t + 1;
    }
    return acc;
}
EOF
# A trip count no unroller could touch must be solved by iterate-and-widen.
"$SAFEGEN" run "$SMOKE_DIR/loop.c" --fn f --config dspv --k 8 \
    --arg 1.0 --int 1099511627776 --loop-mode fixpoint --unroll-budget 4 \
    | grep -q "fixpoint: 1 loop(s) solved"
# Header flags are reserved: a fresh artifact writes 0...
"$SAFEGEN" compile "$SMOKE_DIR/loop.c" -o "$SMOKE_DIR/loop.sga" --k 8
test "$(od -An -j6 -N1 -tu1 "$SMOKE_DIR/loop.sga" | tr -d ' ')" = "0"
# ...and a forged bit 0 is refused at load.
cp "$SMOKE_DIR/loop.sga" "$SMOKE_DIR/forged.sga"
printf '\x01' | dd of="$SMOKE_DIR/forged.sga" bs=1 seek=6 conv=notrunc status=none
if "$SAFEGEN" run "$SMOKE_DIR/forged.sga" --fn f --config dspv \
    --k 8 --arg 1.0 --int 8 > "$SMOKE_DIR/forged.txt" 2>&1; then
    echo "forged artifact unexpectedly accepted"
    exit 1
fi
grep -q "reserved header flags set" "$SMOKE_DIR/forged.txt"
# An artifact of the previous format version (2, whose pragmas were
# instructions of their own) is refused by name.
cp "$SMOKE_DIR/loop.sga" "$SMOKE_DIR/v2.sga"
printf '\x02\x00' | dd of="$SMOKE_DIR/v2.sga" bs=1 seek=4 conv=notrunc status=none
if "$SAFEGEN" run "$SMOKE_DIR/v2.sga" --fn f --config dspv \
    --k 8 --arg 1.0 --int 8 > "$SMOKE_DIR/v2.txt" 2>&1; then
    echo "version-2 artifact unexpectedly accepted"
    exit 1
fi
grep -q "unsupported artifact version 2" "$SMOKE_DIR/v2.txt"

echo "== loop fuzz smoke (unbounded-loop generation; must be clean) =="
build_release
"$SAFEGEN" fuzz --iters 2000 --seed 0xC60 --loops \
    --out "$SMOKE_DIR/loopfuzz" | grep -q " 0 counterexamples"

echo "== fixpoint bench smoke (loop solve vs. unroll + results JSON) =="
build_release
(cd "$SMOKE_DIR" && SAFEGEN_QUICK=1 SAFEGEN_REPS=1 \
    "$OLDPWD/target/release/fixpoint" > /dev/null)
"$JSON_CHECK" "$SMOKE_DIR/results/BENCH_fixpoint.json"

echo "== bench trend gate (every results/BENCH_*.json export is valid) =="
./target/release/trend --require 8

echo "== lane-differential gate (SoA engine bit-identical to scalar) =="
cargo test -q --test lanes_differential

echo "== dispatch bench smoke (SoA engine + results JSON) =="
build_release
# Run from the scratch dir: the binary writes results/BENCH_dispatch.json
# relative to its cwd, and the committed copy holds a full-length run.
(cd "$SMOKE_DIR" && SAFEGEN_QUICK=1 SAFEGEN_REPS=1 \
    "$OLDPWD/target/release/dispatch" > /dev/null)
"$JSON_CHECK" "$SMOKE_DIR/results/BENCH_dispatch.json"

echo "== ops bench smoke (op-level microbenchmarks + results JSON) =="
build_release
# Same scratch-dir rule: the committed BENCH_ops.json is a full run.
(cd "$SMOKE_DIR" && SAFEGEN_QUICK=1 SAFEGEN_REPS=1 \
    "$OLDPWD/target/release/ops" > /dev/null)
"$JSON_CHECK" "$SMOKE_DIR/results/BENCH_ops.json"

echo "ci.sh: all checks passed"
