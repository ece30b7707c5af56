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
use dds_structure::{Element, Structure, SymbolId};

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

/// Widest relation atom whose tuple is built in a stack buffer.
const ARGS_INLINE: usize = 8;

/// Evaluates a formula under a total valuation of its free variables.
///
/// The slice `val` assigns `val[i]` to variable `i`; it must cover every
/// free variable. Bound variables may exceed the slice length.
///
/// Connectives and atoms over variables are evaluated straight from `val`
/// (the same code as [`eval_with`]); a quantified subformula or an atom
/// with a function term falls back to the environment evaluator, which
/// gives the same results and errors.
pub fn eval(f: &Formula, s: &Structure, val: &[Element]) -> Result<bool, LogicError> {
    connectives(
        f,
        &mut |atom| match var_atom(atom, val, &mut |r, t| s.holds(r, t)) {
            Some(value) => value,
            None => {
                let mut env: Vec<Option<Element>> = val.iter().map(|&e| Some(e)).collect();
                eval_env(atom, s, &mut env)
            }
        },
    )
}

/// Evaluates a [local](is_local) formula under `val` without a structure:
/// `holds(r, tuple)` answers each relation atom the evaluation reaches.
/// Connectives short-circuit left to right exactly as in [`eval`], so
/// `eval_with(f, val, |r, t| s.holds(r, t)) == eval(f, s, val)`, errors
/// included, and `holds` sees exactly the atoms whose value can matter.
///
/// A quantifier or function term reached by the evaluation is an error
/// ([`LogicError::Kind`]): those need the structure's domain or functions.
pub fn eval_with(
    f: &Formula,
    val: &[Element],
    mut holds: impl FnMut(SymbolId, &[Element]) -> bool,
) -> Result<bool, LogicError> {
    connectives(f, &mut |atom| {
        var_atom(atom, val, &mut holds)
            .unwrap_or_else(|| Err(LogicError::Kind(format!("non-local subformula {atom:?}"))))
    })
}

/// Whether `f` is *local*: quantifier-free with variables as its only
/// terms, so its value under a valuation depends only on the atoms over the
/// valuation's elements ([`eval_with`] evaluates it).
pub fn is_local(f: &Formula) -> bool {
    match f {
        Formula::True | Formula::False => true,
        Formula::Eq(a, b) => matches!((a, b), (Term::Var(_), Term::Var(_))),
        Formula::Rel(_, args) => args.iter().all(|t| matches!(t, Term::Var(_))),
        Formula::Not(inner) => is_local(inner),
        Formula::And(fs) | Formula::Or(fs) => fs.iter().all(is_local),
        Formula::Exists(..) => false,
    }
}

/// The one connective evaluator: `True`, `False`, `Not`, `And` and `Or`,
/// with `And`/`Or` short-circuiting left to right; every other subformula
/// (an atom or a quantifier) goes to `atom`.
fn connectives(
    f: &Formula,
    atom: &mut impl FnMut(&Formula) -> Result<bool, LogicError>,
) -> Result<bool, LogicError> {
    match f {
        Formula::True => Ok(true),
        Formula::False => Ok(false),
        Formula::Not(inner) => Ok(!connectives(inner, atom)?),
        Formula::And(fs) => {
            for sub in fs {
                if !connectives(sub, atom)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Formula::Or(fs) => {
            for sub in fs {
                if connectives(sub, atom)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        _ => atom(f),
    }
}

/// Evaluates an equality or relation atom whose terms are variables,
/// reading them from `val` in argument order and answering relation atoms
/// with `holds`. `None` for any other subformula, and for an atom with a
/// function term (after its variables before the term are found bound).
fn var_atom(
    atom: &Formula,
    val: &[Element],
    holds: &mut impl FnMut(SymbolId, &[Element]) -> bool,
) -> Option<Result<bool, LogicError>> {
    let var = |v: &Var| {
        val.get(v.index())
            .copied()
            .ok_or(LogicError::UnboundVariable(v.0))
    };
    match atom {
        Formula::Eq(Term::Var(a), Term::Var(b)) => Some(var(a).and_then(|x| Ok(x == var(b)?))),
        Formula::Rel(r, args) => {
            let mut buf = [Element(0); ARGS_INLINE];
            let mut wide = Vec::new();
            let tuple = if args.len() <= ARGS_INLINE {
                &mut buf[..args.len()]
            } else {
                wide.resize(args.len(), Element(0));
                &mut wide[..]
            };
            for (slot, a) in tuple.iter_mut().zip(args) {
                match a {
                    Term::Var(v) => match var(v) {
                        Ok(e) => *slot = e,
                        Err(err) => return Some(Err(err)),
                    },
                    Term::App(..) => return None,
                }
            }
            Some(Ok(holds(*r, tuple)))
        }
        _ => None,
    }
}

fn eval_env(
    f: &Formula,
    s: &Structure,
    env: &mut Vec<Option<Element>>,
) -> Result<bool, LogicError> {
    connectives(f, &mut |atom| match atom {
        Formula::Eq(a, b) => Ok(eval_term(a, s, env)? == eval_term(b, s, env)?),
        Formula::Rel(r, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_term(a, s, env)?);
            }
            Ok(s.holds(*r, &vals))
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
        _ => unreachable!("connectives are evaluated by `connectives`"),
    })
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
    fn eval_with_reads_only_the_atoms_it_reaches() {
        let mut sc = Schema::new();
        let e = sc.add_relation("E", 2).unwrap();
        let schema = sc.finish();
        let val = [Element(0), Element(1)];
        // E(x, y) | E(y, x): the second atom is read only when the first fails.
        let phi = Formula::or(vec![
            Formula::rel_vars(e, &[Var(0), Var(1)]),
            Formula::rel_vars(e, &[Var(1), Var(0)]),
        ]);
        let mut read = Vec::new();
        let got = eval_with(&phi, &val, |_, t| {
            read.push(t.to_vec());
            t[0] == Element(0)
        });
        assert_eq!(got, Ok(true));
        assert_eq!(read, vec![vec![Element(0), Element(1)]]);
        assert!(is_local(&phi));
        // Quantifiers and function terms need the structure.
        let exists = Formula::Exists(vec![Var(2)], Box::new(phi));
        assert!(!is_local(&exists));
        assert!(matches!(
            eval_with(&exists, &val, |_, _| true),
            Err(LogicError::Kind(_))
        ));
        let g = Structure::new(schema, 2);
        assert_eq!(eval(&exists, &g, &val), Ok(false));
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
