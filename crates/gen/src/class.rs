//! [`AnyClass`]: every structure class the Theorem 5 engine runs over, as
//! one value.
//!
//! The spec frontend (`dds-cli`'s lowering) and the generator
//! ([`crate::Scenario::build`]) both produce it.
//! [`with_symbolic_class!`](crate::with_symbolic_class) is the one place
//! that lists the symbolic variants to make the same generic call on each.

use dds_core::{DataClass, FreeRelationalClass, HomClass, SymbolicClass};
use dds_reductions::counter::CounterMachine;
use dds_structure::Schema;
use dds_trees::TreeClass;
use dds_words::WordClass;
use std::sync::Arc;

/// The structure class a system is verified over, with every
/// engine-supported combination spelled out (the [`dds_core::Engine`] is
/// generic; callers dispatch through
/// [`with_symbolic_class!`](crate::with_symbolic_class)).
#[derive(Debug)]
pub enum AnyClass {
    /// All finite databases over the declared schema.
    Free(FreeRelationalClass),
    /// `HOM(H)` via the colored lift (Theorem 4).
    Hom(HomClass),
    /// Finite strict linear orders (Example 3), `⊙ ⟨ℚ,<⟩` over the empty
    /// free class.
    Order(DataClass<FreeRelationalClass>),
    /// Finite equivalence relations (Example 3), `⊗ ⟨ℕ,=⟩` over the empty
    /// free class.
    Equiv(DataClass<FreeRelationalClass>),
    /// Regular word languages (Theorem 10).
    Words(WordClass),
    /// Regular tree languages (Theorem 3).
    Trees(TreeClass),
    /// Data product over the free class (Proposition 1).
    DataFree(DataClass<FreeRelationalClass>),
    /// Data product over `HOM(H)` (Corollary 8).
    DataHom(DataClass<HomClass>),
    /// Data product over linear orders.
    DataOrder(DataClass<DataClass<FreeRelationalClass>>),
    /// Data product over equivalence relations.
    DataEquiv(DataClass<DataClass<FreeRelationalClass>>),
    /// A §6 two-counter machine (no symbolic class; `bounded-halt` only).
    Counter(CounterMachine),
}

/// Matches an [`AnyClass`] and evaluates `$body` with `$c` bound to the
/// symbolic class of every variant but `Counter` (one monomorphized arm
/// per class), or `$counter` for a counter machine.
///
/// ```
/// use dds_core::{DataClass, SymbolicClass};
/// use dds_gen::{with_symbolic_class, AnyClass};
///
/// let class = AnyClass::Order(DataClass::linear_order());
/// let symbols = with_symbolic_class!(&class, |c| c.schema().symbols().count(), else 0);
/// assert_eq!(symbols, 1);
/// ```
#[macro_export]
macro_rules! with_symbolic_class {
    ($class:expr, |$c:ident| $body:expr, else $counter:expr) => {
        match $class {
            $crate::AnyClass::Free($c) => $body,
            $crate::AnyClass::Hom($c) => $body,
            $crate::AnyClass::Order($c) => $body,
            $crate::AnyClass::Equiv($c) => $body,
            $crate::AnyClass::Words($c) => $body,
            $crate::AnyClass::Trees($c) => $body,
            $crate::AnyClass::DataFree($c) => $body,
            $crate::AnyClass::DataHom($c) => $body,
            $crate::AnyClass::DataOrder($c) => $body,
            $crate::AnyClass::DataEquiv($c) => $body,
            $crate::AnyClass::Counter(_) => $counter,
        }
    };
}

impl AnyClass {
    /// The public schema guards are written against (`None` for counter
    /// machines, which have no guards).
    pub fn schema(&self) -> Option<&Arc<Schema>> {
        with_symbolic_class!(self, |c| Some(c.schema()), else None)
    }

    /// Short description for report headers.
    pub fn describe(&self) -> String {
        match self {
            AnyClass::Free(_) => "free".into(),
            AnyClass::Hom(c) => format!("hom (template size {})", c.template().size()),
            AnyClass::Order(_) => "linear-order".into(),
            AnyClass::Equiv(_) => "equivalence".into(),
            AnyClass::Words(_) => "words".into(),
            AnyClass::Trees(_) => "trees".into(),
            AnyClass::DataFree(_) => "data over free".into(),
            AnyClass::DataHom(c) => {
                format!(
                    "data over hom (template size {})",
                    c.inner().template().size()
                )
            }
            AnyClass::DataOrder(_) => "data over linear-order".into(),
            AnyClass::DataEquiv(_) => "data over equivalence".into(),
            AnyClass::Counter(m) => format!("counter machine ({} instructions)", m.program.len()),
        }
    }
}
