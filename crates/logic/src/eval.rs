//! Formula evaluation against a finite structure.
//!
//! `A ⊨_val φ` from §2: the formula holds in structure `A` under the
//! valuation `val` of its free variables. Existential quantifiers are
//! evaluated by iterating over the (finite) domain — this is the *reference*
//! semantics used by the explicit model checker and by tests; the symbolic
//! engine only ever evaluates quantifier-free guards.

use crate::error::LogicError;
use crate::formula::Formula;
use crate::term::{Term, Var};
use dds_structure::{Element, Structure};

/// Evaluates a term under a partial environment (indexed by variable).
pub fn eval_term(t: &Term, s: &Structure, env: &[Option<Element>]) -> Result<Element, LogicError> {
    match t {
        Term::Var(v) => env
            .get(v.index())
            .copied()
            .flatten()
            .ok_or(LogicError::UnboundVariable(v.0)),
        Term::App(f, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_term(a, s, env)?);
            }
            s.try_apply(*f, &vals)
                .ok_or_else(|| LogicError::Kind(format!("{f:?}")))
        }
    }
}

/// Widest relation atom [`eval`] evaluates from a stack buffer.
const ARGS_INLINE: usize = 8;

/// Evaluates a formula under a total valuation of its free variables.
///
/// The slice `val` assigns `val[i]` to variable `i`; it must cover every
/// free variable. Bound variables may exceed the slice length.
///
/// Connectives and atoms over variables are evaluated straight from `val`
/// without allocating; a subformula with a quantifier, a function term or a
/// relation atom of more than `ARGS_INLINE` arguments falls back to the
/// environment evaluator, which gives the same results and errors.
pub fn eval(f: &Formula, s: &Structure, val: &[Element]) -> Result<bool, LogicError> {
    let var = |v: &Var| {
        val.get(v.index())
            .copied()
            .ok_or(LogicError::UnboundVariable(v.0))
    };
    match f {
        Formula::True => return Ok(true),
        Formula::False => return Ok(false),
        Formula::Eq(Term::Var(a), Term::Var(b)) => return Ok(var(a)? == var(b)?),
        Formula::Rel(r, args) if args.len() <= ARGS_INLINE => {
            let mut buf = [Element(0); ARGS_INLINE];
            let mut direct = true;
            for (slot, a) in buf.iter_mut().zip(args) {
                match a {
                    Term::Var(v) => *slot = var(v)?,
                    Term::App(..) => {
                        direct = false;
                        break;
                    }
                }
            }
            if direct {
                return Ok(s.holds(*r, &buf[..args.len()]));
            }
        }
        Formula::Not(inner) => return Ok(!eval(inner, s, val)?),
        Formula::And(fs) => {
            for sub in fs {
                if !eval(sub, s, val)? {
                    return Ok(false);
                }
            }
            return Ok(true);
        }
        Formula::Or(fs) => {
            for sub in fs {
                if eval(sub, s, val)? {
                    return Ok(true);
                }
            }
            return Ok(false);
        }
        _ => {}
    }
    let mut env: Vec<Option<Element>> = val.iter().map(|&e| Some(e)).collect();
    eval_env(f, s, &mut env)
}

fn eval_env(
    f: &Formula,
    s: &Structure,
    env: &mut Vec<Option<Element>>,
) -> Result<bool, LogicError> {
    match f {
        Formula::True => Ok(true),
        Formula::False => Ok(false),
        Formula::Eq(a, b) => Ok(eval_term(a, s, env)? == eval_term(b, s, env)?),
        Formula::Rel(r, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_term(a, s, env)?);
            }
            Ok(s.holds(*r, &vals))
        }
        Formula::Not(inner) => Ok(!eval_env(inner, s, env)?),
        Formula::And(fs) => {
            for sub in fs {
                if !eval_env(sub, s, env)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Formula::Or(fs) => {
            for sub in fs {
                if eval_env(sub, s, env)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        Formula::Exists(vs, body) => {
            // Grow the environment to cover the bound block.
            let needed = vs.iter().map(|v| v.index() + 1).max().unwrap_or(0);
            if env.len() < needed {
                env.resize(needed, None);
            }
            let saved: Vec<Option<Element>> = vs.iter().map(|v| env[v.index()]).collect();
            let found = try_all(s, vs, 0, env, body)?;
            for (v, old) in vs.iter().zip(saved) {
                env[v.index()] = old;
            }
            Ok(found)
        }
    }
}

fn try_all(
    s: &Structure,
    vs: &[crate::term::Var],
    pos: usize,
    env: &mut Vec<Option<Element>>,
    body: &Formula,
) -> Result<bool, LogicError> {
    if pos == vs.len() {
        return eval_env(body, s, env);
    }
    for e in s.elements() {
        env[vs[pos].index()] = Some(e);
        if try_all(s, vs, pos + 1, env, body)? {
            return Ok(true);
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_structure::Schema;

    #[test]
    fn evaluates_atoms_and_connectives() {
        let mut sc = Schema::new();
        let e = sc.add_relation("E", 2).unwrap();
        let schema = sc.finish();
        let mut g = Structure::new(schema, 2);
        g.add_fact(e, &[Element(0), Element(1)]).unwrap();

        let f = Formula::and(vec![
            Formula::rel_vars(e, &[Var(0), Var(1)]),
            Formula::negate(Formula::var_eq(Var(0), Var(1))),
        ]);
        assert!(eval(&f, &g, &[Element(0), Element(1)]).unwrap());
        assert!(!eval(&f, &g, &[Element(1), Element(0)]).unwrap());
        assert!(matches!(
            eval(&f, &g, &[Element(0)]),
            Err(LogicError::UnboundVariable(1))
        ));
    }

    #[test]
    fn evaluates_function_terms() {
        let mut sc = Schema::new();
        let f = sc.add_function("f", 1).unwrap();
        let schema = sc.finish();
        let mut a = Structure::new(schema, 2);
        a.set_func(f, &[Element(0)], Element(1)).unwrap();
        a.set_func(f, &[Element(1)], Element(1)).unwrap();
        // f(f(x)) = f(x) at x=0 (both give e1)
        let phi = Formula::Eq(
            Term::app(f, vec![Term::app(f, vec![Term::var(Var(0))])]),
            Term::app(f, vec![Term::var(Var(0))]),
        );
        assert!(eval(&phi, &a, &[Element(0)]).unwrap());
        // f(x) = x fails at 0, holds at 1
        let fix = Formula::Eq(Term::app(f, vec![Term::var(Var(0))]), Term::var(Var(0)));
        assert!(!eval(&fix, &a, &[Element(0)]).unwrap());
        assert!(eval(&fix, &a, &[Element(1)]).unwrap());
    }

    #[test]
    fn existential_iterates_domain() {
        let mut sc = Schema::new();
        let e = sc.add_relation("E", 2).unwrap();
        let schema = sc.finish();
        let mut g = Structure::new(schema, 3);
        g.add_fact(e, &[Element(0), Element(2)]).unwrap();
        g.add_fact(e, &[Element(2), Element(1)]).unwrap();
        // exists z. E(x, z) & E(z, y)  — a path of length 2 from x to y
        let phi = Formula::Exists(
            vec![Var(2)],
            Box::new(Formula::and(vec![
                Formula::rel_vars(e, &[Var(0), Var(2)]),
                Formula::rel_vars(e, &[Var(2), Var(1)]),
            ])),
        );
        assert!(eval(&phi, &g, &[Element(0), Element(1)]).unwrap());
        assert!(!eval(&phi, &g, &[Element(1), Element(0)]).unwrap());
        // Environment restored: free use of v2 afterwards is unbound.
        let and = Formula::and(vec![phi, Formula::var_eq(Var(0), Var(0))]);
        assert!(eval(&and, &g, &[Element(0), Element(1)]).unwrap());
    }

    #[test]
    fn direct_path_matches_the_environment_path() {
        let mut sc = Schema::new();
        let e = sc.add_relation("E", 2).unwrap();
        let wide = sc.add_relation("W", 9).unwrap();
        let f = sc.add_function("f", 1).unwrap();
        let schema = sc.finish();
        let mut a = Structure::new(schema, 2);
        a.add_fact(e, &[Element(0), Element(1)]).unwrap();
        a.add_fact(wide, &[Element(1); 9]).unwrap();
        a.set_func(f, &[Element(0)], Element(1)).unwrap();
        a.set_func(f, &[Element(1)], Element(0)).unwrap();
        let v = |i| Term::var(Var(i));
        let fx = Term::app(f, vec![v(0)]);
        let formulas = [
            Formula::rel_vars(e, &[Var(0), Var(1)]),
            Formula::Rel(e, vec![fx.clone(), v(0)]),
            Formula::Rel(e, vec![v(0), fx.clone()]),
            // Unbound variable after a function term, and before one.
            Formula::Rel(e, vec![fx.clone(), v(5)]),
            Formula::Rel(e, vec![v(5), fx.clone()]),
            Formula::Eq(fx.clone(), v(1)),
            Formula::var_eq(Var(0), Var(7)),
            Formula::rel_vars(wide, &[Var(1); 9]),
            Formula::rel_vars(wide, &[Var(6); 9]),
            Formula::negate(Formula::and(vec![
                Formula::Exists(
                    vec![Var(4)],
                    Box::new(Formula::rel_vars(e, &[Var(4), Var(1)])),
                ),
                Formula::var_eq(Var(4), Var(0)),
            ])),
            Formula::or(vec![Formula::False, Formula::var_eq(Var(1), Var(0))]),
        ];
        for phi in &formulas {
            for val in [[Element(0), Element(1)], [Element(1), Element(1)]] {
                let mut env: Vec<Option<Element>> = val.iter().map(|&x| Some(x)).collect();
                assert_eq!(eval(phi, &a, &val), eval_env(phi, &a, &mut env), "{phi:?}");
            }
        }
    }

    #[test]
    fn nested_existentials() {
        let mut sc = Schema::new();
        let e = sc.add_relation("E", 2).unwrap();
        let schema = sc.finish();
        let mut g = Structure::new(schema, 2);
        g.add_fact(e, &[Element(0), Element(1)]).unwrap();
        // exists a b. E(a, b)
        let phi = Formula::Exists(
            vec![Var(0), Var(1)],
            Box::new(Formula::rel_vars(e, &[Var(0), Var(1)])),
        );
        assert!(eval(&phi, &g, &[]).unwrap());
        let empty = Structure::new(g.schema().clone(), 2);
        assert!(!eval(&phi, &empty, &[]).unwrap());
    }
}
