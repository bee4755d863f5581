//! Re-absorbing emitted sound C: the inverse of the `aa_*` lowering.
//!
//! The backend ([`crate::emit_c`]) prints the transformed program against
//! the affine runtime API — affine value-type declarations and
//! `aa_<op>_<suffix>(a, b)` calls. [`reparse_emitted`] maps that artifact
//! back into the ordinary C subset this front end accepts, reading the
//! table in [`crate::runtime`] backward:
//!
//! * `#include` lines are dropped (the lexer rejects non-pragma
//!   directives by design);
//! * the affine value types become `double` again;
//! * every `aa_*` runtime call is rewritten to the construct it was
//!   lowered from — operators, comparisons, `sqrt`/`fabs`/`fmin`/`fmax`,
//!   casts, constants, and `aa_prioritize(v)` back to
//!   `#pragma safegen prioritize(v)`.
//!
//! The result is a parse tree of plain C that can be re-run through the
//! whole pipeline. Differential tests use this to close the loop: source
//! → compile → emit → **reparse** → compile again must agree with the
//! original, both structurally (TAC printing) and semantically (VM
//! ranges). Anything the rewriter does not recognize is a hard error —
//! a silently-skipped call would let the round-trip check pass vacuously.

use crate::ast::{Expr, Stmt, Ty, UnOp, Unit};
use crate::runtime::{lookup, Construct, EmitPrecision, PREFIX};
use crate::{parse, Diagnostic, ParseError};

/// Parses the output of the sound-C emitter back into the plain C subset.
///
/// Accepts any emission precision; all affine value types come back as
/// `double`.
///
/// # Errors
///
/// Fails when the source does not parse after directive stripping, or
/// when an `aa_*` call has an unknown name or the wrong arity.
pub fn reparse_emitted(emitted: &str) -> Result<Unit, ParseError> {
    let stripped = strip_includes(emitted);
    let plain = replace_affine_types(&stripped);
    let mut unit = parse(&plain)?;
    for f in &mut unit.functions {
        let body = std::mem::take(&mut f.body);
        f.body = rewrite_block(body)?;
    }
    Ok(unit)
}

fn strip_includes(src: &str) -> String {
    src.lines()
        .filter(|l| !l.trim_start().starts_with("#include"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Replaces whole-word occurrences of the affine type names with
/// `double`. A plain string replace would corrupt identifiers like
/// `my_f64a`; this scan checks word boundaries.
fn replace_affine_types(src: &str) -> String {
    let is_word = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let bytes = src.as_bytes();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    'outer: while i < bytes.len() {
        for name in EmitPrecision::ALL.map(EmitPrecision::value_type) {
            let n = name.len();
            if bytes[i..].starts_with(name.as_bytes())
                && (i == 0 || !is_word(bytes[i - 1]))
                && (i + n == bytes.len() || !is_word(bytes[i + n]))
            {
                out.push_str("double");
                i += n;
                continue 'outer;
            }
        }
        // Advance one full UTF-8 scalar (comments may hold non-ASCII).
        let step = src[i..].chars().next().map_or(1, char::len_utf8);
        out.push_str(&src[i..i + step]);
        i += step;
    }
    out
}

fn arity_err(callee: &str, span: crate::Span) -> ParseError {
    Diagnostic::new(format!("runtime call `{callee}` has the wrong arity"), span).into()
}

fn rewrite_block(body: Vec<Stmt>) -> Result<Vec<Stmt>, ParseError> {
    body.into_iter().map(rewrite_stmt).collect()
}

fn rewrite_stmt(s: Stmt) -> Result<Stmt, ParseError> {
    Ok(match s {
        Stmt::Decl {
            ty,
            name,
            init,
            span,
        } => Stmt::Decl {
            ty,
            name,
            init: init.map(rewrite_expr).transpose()?,
            span,
        },
        Stmt::Assign { lhs, op, rhs, span } => Stmt::Assign {
            lhs: rewrite_expr(lhs)?,
            op,
            rhs: rewrite_expr(rhs)?,
            span,
        },
        Stmt::If {
            cond,
            then_body,
            else_body,
            span,
        } => Stmt::If {
            cond: rewrite_expr(cond)?,
            then_body: rewrite_block(then_body)?,
            else_body: rewrite_block(else_body)?,
            span,
        },
        Stmt::For {
            init,
            cond,
            step,
            body,
            span,
        } => Stmt::For {
            init: init.map(|s| rewrite_stmt(*s).map(Box::new)).transpose()?,
            cond: cond.map(rewrite_expr).transpose()?,
            step: step.map(|s| rewrite_stmt(*s).map(Box::new)).transpose()?,
            body: rewrite_block(body)?,
            span,
        },
        Stmt::While { cond, body, span } => Stmt::While {
            cond: rewrite_expr(cond)?,
            body: rewrite_block(body)?,
            span,
        },
        Stmt::Return { value, span } => Stmt::Return {
            value: value.map(rewrite_expr).transpose()?,
            span,
        },
        Stmt::ExprStmt { expr, span } => {
            // `aa_prioritize_f64(v);` statements were lowered from the
            // prioritization pragma — raise them back.
            if let Expr::Call { callee, args, .. } = &expr {
                if lookup(callee).is_some_and(|c| c.construct == Construct::Prioritize) {
                    let [Expr::Ident { name, .. }] = args.as_slice() else {
                        return Err(arity_err(callee, expr.span()));
                    };
                    return Ok(Stmt::Pragma {
                        payload: format!("prioritize({name})"),
                        span,
                    });
                }
            }
            Stmt::ExprStmt {
                expr: rewrite_expr(expr)?,
                span,
            }
        }
        Stmt::Pragma { .. } => s,
        Stmt::Block { body, span } => Stmt::Block {
            body: rewrite_block(body)?,
            span,
        },
    })
}

fn rewrite_expr(e: Expr) -> Result<Expr, ParseError> {
    Ok(match e {
        Expr::IntLit { .. } | Expr::FloatLit { .. } | Expr::Ident { .. } => e,
        Expr::Index { base, index, span } => Expr::Index {
            base: Box::new(rewrite_expr(*base)?),
            index: Box::new(rewrite_expr(*index)?),
            span,
        },
        Expr::Bin { op, lhs, rhs, span } => Expr::Bin {
            op,
            lhs: Box::new(rewrite_expr(*lhs)?),
            rhs: Box::new(rewrite_expr(*rhs)?),
            span,
        },
        Expr::Un { op, operand, span } => Expr::Un {
            op,
            operand: Box::new(rewrite_expr(*operand)?),
            span,
        },
        Expr::Cast { ty, operand, span } => Expr::Cast {
            ty,
            operand: Box::new(rewrite_expr(*operand)?),
            span,
        },
        Expr::Call { callee, args, span } => {
            let args = args
                .into_iter()
                .map(rewrite_expr)
                .collect::<Result<Vec<_>, _>>()?;
            let Some(entry) = lookup(&callee) else {
                if callee.starts_with(PREFIX) {
                    return Err(
                        Diagnostic::new(format!("unknown runtime call `{callee}`"), span).into(),
                    );
                }
                // An ordinary builtin call (shouldn't occur in emitted
                // code, but harmless): keep it, arguments rewritten.
                return Ok(Expr::Call { callee, args, span });
            };
            if args.len() != entry.arity {
                return Err(arity_err(&callee, span));
            }
            let mut args = args.into_iter();
            let mut arg = || Box::new(args.next().expect("arity checked"));
            match entry.construct {
                Construct::Bin(op) => Expr::Bin {
                    op,
                    lhs: arg(),
                    rhs: arg(),
                    span,
                },
                Construct::Neg => Expr::Un {
                    op: UnOp::Neg,
                    operand: arg(),
                    span,
                },
                // The sound constant wrapper: the literal inside *is* the
                // original constant.
                Construct::Const => *arg(),
                Construct::Builtin(name) => Expr::Call {
                    callee: name.to_string(),
                    args: args.collect(),
                    span,
                },
                Construct::FromInt => Expr::Cast {
                    ty: Ty::Double,
                    operand: arg(),
                    span,
                },
                Construct::ToInt => Expr::Cast {
                    ty: Ty::Int,
                    operand: arg(),
                    span,
                },
                Construct::Prioritize => {
                    return Err(Diagnostic::new(
                        format!("runtime call `{callee}` is a statement, not a value"),
                        span,
                    )
                    .into())
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, print_unit};

    #[test]
    fn includes_stripped_and_types_restored() {
        let src = "/* Generated by SafeGen-rs: sound affine-arithmetic version. */\n\
                   #include \"safegen_aa.h\"\n\n\
                   f64a f(f64a x) {\n    return aa_add_f64(x, aa_const_f64(0.1));\n}\n";
        let unit = reparse_emitted(src).unwrap();
        assert!(analyze(&unit).is_ok());
        let printed = print_unit(&unit);
        assert!(printed.contains("double f(double x)"), "{printed}");
        assert!(printed.contains("x + 0.1"), "{printed}");
        assert!(!printed.contains("aa_"), "{printed}");
    }

    #[test]
    fn word_boundary_type_replacement() {
        let out = replace_affine_types("f64a x; int dda_count; f32a y; dda z;");
        assert_eq!(out, "double x; int dda_count; double y; double z;");
    }

    #[test]
    fn all_operator_calls_come_back() {
        let src = "dda f(dda a, dda b) {\n\
                   dda c = aa_div_dd(aa_mul_dd(a, b), aa_sub_dd(a, aa_neg_dd(b)));\n\
                   dda d = aa_max_dd(aa_min_dd(c, a), aa_abs_dd(aa_sqrt_dd(b)));\n\
                   return d;\n}\n";
        let printed = print_unit(&reparse_emitted(src).unwrap());
        assert!(printed.contains("a * b"), "{printed}");
        assert!(printed.contains("a - -b"), "{printed}");
        assert!(
            printed.contains("fmax(fmin(c, a), fabs(sqrt(b)))"),
            "{printed}"
        );
    }

    #[test]
    fn comparisons_and_pragma_raised() {
        let src = "f64a f(f64a x, f64a z) {\n\
                   aa_prioritize_f64(z);\n\
                   if (aa_cmp_lt_f64(x, aa_const_f64(0.0))) {\n\
                   x = aa_mul_f64(x, z);\n\
                   }\n\
                   return x;\n}\n";
        let unit = reparse_emitted(src).unwrap();
        let has_pragma = unit.functions[0]
            .body
            .iter()
            .any(|s| matches!(s, Stmt::Pragma { payload, .. } if payload == "prioritize(z)"));
        assert!(has_pragma);
        let printed = print_unit(&unit);
        assert!(printed.contains("x < 0.0"), "{printed}");
    }

    #[test]
    fn casts_restored_both_ways() {
        let src = "f64a f(f64a x) {\n\
                   int n = aa_to_int_f64(x);\n\
                   return aa_from_int_f64(n);\n}\n";
        let printed = print_unit(&reparse_emitted(src).unwrap());
        assert!(
            printed.contains("(int) x") || printed.contains("(int)x"),
            "{printed}"
        );
        assert!(
            printed.contains("(double) n") || printed.contains("(double)n"),
            "{printed}"
        );
    }

    #[test]
    fn unknown_runtime_call_is_an_error() {
        let src = "f64a f(f64a x) { return aa_frobnicate_f64(x); }";
        assert!(reparse_emitted(src).is_err());
    }

    #[test]
    fn wrong_arity_is_an_error() {
        let src = "f64a f(f64a x) { return aa_add_f64(x); }";
        assert!(reparse_emitted(src).is_err());
    }
}
