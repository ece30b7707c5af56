//! The abstract syntax of a `.dds` specification file.
//!
//! A specification declares, in any order: the system name, an (optional)
//! schema, exactly one structure class, the registers, the control states
//! with their initial markers, the guarded transition rules, and one or more
//! properties to verify. The concrete grammar is documented in
//! `docs/SPEC_LANGUAGE.md`; [`crate::parse_spec`] produces this AST and
//! [`crate::lower()`] turns it into engine inputs. Every type derives
//! `Hash`: [`crate::api::fingerprint`] hashes the AST, source lines
//! included, as the `dds serve` cache key.

/// A state/letter/label reference together with its source line.
pub type NameRef = (String, usize);

/// A `p->q` pair together with its source line.
pub type PairRef = (String, String, usize);

/// A whole `.dds` file.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct Spec {
    /// System name (`system <name>`); used as the report-id prefix.
    pub name: String,
    /// Schema declarations, when the class does not fix the schema itself.
    pub schema: Option<Vec<SchemaDecl>>,
    /// The structure class the databases are drawn from.
    pub class: ClassDecl,
    /// Register names, in declaration order.
    pub registers: Vec<String>,
    /// Source line of the `registers` declaration (0 when absent).
    pub registers_line: usize,
    /// Control states, in declaration order.
    pub states: Vec<StateDecl>,
    /// Transition rules, in declaration order.
    pub rules: Vec<RuleDecl>,
    /// Properties to verify, in declaration order.
    pub properties: Vec<PropertyDecl>,
}

/// One symbol declaration inside `schema { .. }`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SchemaDecl {
    /// Symbol name.
    pub name: String,
    /// Arity.
    pub arity: usize,
    /// `true` for `function`, `false` for `relation`.
    pub function: bool,
    /// Source line (for error reporting).
    pub line: usize,
}

/// A control state declaration inside `states { .. }`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct StateDecl {
    /// State name.
    pub name: String,
    /// Marked `init`.
    pub initial: bool,
    /// Source line.
    pub line: usize,
}

/// A transition rule `rule <from> -> <to>: <guard>`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RuleDecl {
    /// Source state name.
    pub from: String,
    /// Target state name.
    pub to: String,
    /// The guard, in the `dds-logic` concrete syntax.
    pub guard: String,
    /// Source line.
    pub line: usize,
}

/// A ground fact `R(a, b, ..)` inside a `hom` template.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FactDecl {
    /// Relation name.
    pub relation: String,
    /// Element names (must be declared with `element`).
    pub args: Vec<String>,
    /// Source line.
    pub line: usize,
}

/// Which homogeneous structure supplies data values (`class data`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DataValues {
    /// `⊗ ⟨ℕ,=⟩` — compared with `~`.
    NatEq,
    /// `⊙ ⟨ℕ,=⟩` — pairwise distinct, compared with `~`.
    NatEqInjective,
    /// `⊗ ⟨ℚ,<⟩` — compared with `<<`.
    RationalOrder,
    /// `⊙ ⟨ℚ,<⟩` — pairwise distinct, compared with `<<`.
    RationalOrderInjective,
}

/// An NFA or tree-automaton state declaration `state <name> reads <letter>`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ReadsDecl {
    /// State name.
    pub state: String,
    /// Letter (words) or label (trees) the state reads.
    pub reads: String,
    /// Source line.
    pub line: usize,
}

/// One counter-machine instruction (`class counter`). Program locations are
/// implicit: the `n`-th instruction line is location `n`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InstrDecl {
    /// `inc c<i> <next>`.
    Inc {
        /// Counter index (0 or 1).
        counter: usize,
        /// Next location.
        next: usize,
    },
    /// `jzdec c<i> <if_zero> <if_pos>`.
    JzDec {
        /// Counter index (0 or 1).
        counter: usize,
        /// Target when the counter is zero.
        if_zero: usize,
        /// Target after decrementing.
        if_pos: usize,
    },
    /// `halt`.
    Halt,
}

/// The `class ..` stanza.
#[derive(Clone, Debug, PartialEq, Hash)]
pub enum ClassDecl {
    /// All finite databases over the declared (relational) schema.
    Free,
    /// `HOM(H)` for the template declared in the block.
    Hom {
        /// Template elements, in index order.
        elements: Vec<NameRef>,
        /// Template facts.
        facts: Vec<FactDecl>,
    },
    /// All finite strict linear orders (schema fixed to `{</2}`).
    LinearOrder,
    /// All finite equivalence relations (schema fixed to `{~/2}`).
    Equivalence,
    /// Regular word languages (Theorem 10); schema derived from the letters.
    Words {
        /// Alphabet.
        letters: Vec<String>,
        /// NFA states (normalized: each reads one letter).
        states: Vec<ReadsDecl>,
        /// One-step edges `p -> q`.
        edges: Vec<PairRef>,
        /// States allowed at the first position.
        entry: Vec<NameRef>,
        /// States allowed at the last position.
        accepting: Vec<NameRef>,
    },
    /// Regular tree languages / XML (Theorem 3); schema derived from labels.
    Trees {
        /// Node labels.
        labels: Vec<String>,
        /// Automaton states (normalized: each reads one label).
        states: Vec<ReadsDecl>,
        /// Leaf states.
        leaf: Vec<NameRef>,
        /// Root states.
        root: Vec<NameRef>,
        /// Rightmost-sibling states.
        rightmost: Vec<NameRef>,
        /// `first-child p -> q`: `p` may label the leftmost child of a
        /// `q`-node.
        first_child: Vec<PairRef>,
        /// `next-sibling p -> q`: `p` may label the next sibling of a
        /// `q`-node.
        next_sibling: Vec<PairRef>,
    },
    /// A data-value product `C ⊗ F` / `C ⊙ F` over an inner class
    /// (Proposition 1, Corollary 8).
    Data {
        /// The homogeneous structure `F` and injectivity.
        values: DataValues,
        /// The inner class `C` (free, hom, linear-order or equivalence).
        inner: Box<ClassDecl>,
    },
    /// A two-counter machine (§6 reductions; supports `bounded-halt`
    /// properties only).
    Counter {
        /// The program with source lines; location 0 is initial.
        program: Vec<(InstrDecl, usize)>,
    },
}

impl ClassDecl {
    /// Keyword naming the class in error messages.
    pub fn keyword(&self) -> &'static str {
        match self {
            ClassDecl::Free => "free",
            ClassDecl::Hom { .. } => "hom",
            ClassDecl::LinearOrder => "linear-order",
            ClassDecl::Equivalence => "equivalence",
            ClassDecl::Words { .. } => "words",
            ClassDecl::Trees { .. } => "trees",
            ClassDecl::Data { .. } => "data",
            ClassDecl::Counter { .. } => "counter",
        }
    }

    /// Whether the spec must (`true`) or must not (`false`) carry a
    /// `schema { .. }` block for this class.
    pub fn wants_schema(&self) -> bool {
        match self {
            ClassDecl::Free | ClassDecl::Hom { .. } => true,
            ClassDecl::Data { inner, .. } => inner.wants_schema(),
            _ => false,
        }
    }
}

/// What a property asks the CLI to do.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum PropertyKind {
    /// Reachability of the `accept` states (the default; Theorem 5 runs).
    Reach {
        /// Accepting state names.
        accept: Vec<String>,
    },
    /// Run the Fact 2 existential elimination only; outcome `ok`.
    Elim {
        /// Accepting state names (kept on the compiled system).
        accept: Vec<String>,
    },
    /// Lemma 14 pointer-closure blowup over a concrete tree (`class trees`).
    Blowup {
        /// The tree, as a nested term over labels, e.g. `r(a(a(b)))`.
        tree: String,
        /// Preorder node indices whose pointer closure is measured.
        targets: Vec<usize>,
    },
    /// Bounded halting search for a `class counter` machine (Fact 15).
    BoundedHalt {
        /// Maximum word length to try.
        bound: usize,
    },
}

/// A `property <name> { .. }` stanza.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PropertyDecl {
    /// Property name; reports use `<system>::<property>` as the id.
    pub name: String,
    /// What to run.
    pub kind: PropertyKind,
    /// Expected outcome string (`nonempty`, `empty`, `ok`, `halts`, `open`,
    /// `resource-limit`, `ratio_x1000=<n>`); verification fails on mismatch.
    pub expect: Option<String>,
    /// Source line.
    pub line: usize,
}
